package kvcache

import (
	"bytes"
	"testing"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/obs"
	"dilos/internal/pagemgr"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
)

// kvSystem boots a batched node sized for the tests, with reclaimer
// watermarks wide enough that guide prefetch bursts find headroom.
func kvSystem(frames int) (*sim.Engine, *core.System) {
	eng := sim.New()
	mcfg := pagemgr.DefaultConfig(frames)
	mcfg.LowWater = frames / 4
	mcfg.HighWater = frames / 2
	sys := core.New(eng, core.Config{
		CacheFrames: frames,
		Cores:       2,
		RemoteBytes: 256 << 20,
		Fabric:      fabric.DefaultParams(),
		Mgr:         &mcfg,
	})
	return eng, sys
}

// TestKVSequenceLifetimeEviction pins the lifecycle invariants: Finish
// returns every region to the free list and its resident frames to the
// pool, regions recycle into fresh sequences, and recycled regions never
// leak the previous sequence's KV into decode reads.
func TestKVSequenceLifetimeEviction(t *testing.T) {
	p := DefaultParams()
	p.FlushPrefill = false // keep everything resident so Finish has frames to free
	eng, sys := kvSystem(2048)
	sys.Start()
	sys.Launch("kv", 0, func(sp *core.DDCProc) {
		c, err := New(sys, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		total := 2 * p.Layers
		if c.FreeRegions() != total {
			t.Fatalf("fresh cache has %d free regions, want %d", c.FreeRegions(), total)
		}

		s1, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if c.FreeRegions() != total-p.Layers || c.Live() != 1 {
			t.Fatalf("after Begin: %d free, %d live", c.FreeRegions(), c.Live())
		}
		seen := map[int]bool{}
		for _, r := range s1.regions {
			if seen[r] {
				t.Fatalf("region %d handed out twice", r)
			}
			seen[r] = true
		}
		if err := c.Prefill(sp, s1, 40, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := c.DecodeStep(sp, s1, nil); err != nil {
				t.Fatal(err)
			}
		}
		if c.BadReads.N != 0 {
			t.Fatalf("%d bad reads before any recycling", c.BadReads.N)
		}

		freed := c.Finish(sp, s1)
		if freed == 0 {
			t.Fatal("Finish freed no frames despite a fully resident sequence")
		}
		if c.FreeRegions() != total || c.Live() != 0 {
			t.Fatalf("after Finish: %d free regions (want %d), %d live", c.FreeRegions(), total, c.Live())
		}
		if again := c.Finish(sp, s1); again != 0 {
			t.Fatalf("double Finish freed %d frames", again)
		}

		// Recycle: the new sequence reuses s1's regions; prefill rewrites
		// them, so decode must verify every token against the NEW pattern.
		s2, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		recycled := 0
		for _, r := range s2.regions {
			if seen[r] {
				recycled++
			}
		}
		if recycled != p.Layers {
			t.Fatalf("only %d of %d regions recycled from the freed sequence", recycled, p.Layers)
		}
		if err := c.Prefill(sp, s2, 64, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := c.DecodeStep(sp, s2, nil); err != nil {
				t.Fatal(err)
			}
		}
		if c.BadReads.N != 0 {
			t.Fatalf("%d bad reads after region recycling — stale KV leaked", c.BadReads.N)
		}
	})
	eng.Run()
}

// TestKVBeginExhaustion: the region pool is a hard bound; Finish reopens it.
func TestKVBeginExhaustion(t *testing.T) {
	p := DefaultParams()
	eng, sys := kvSystem(2048)
	sys.Start()
	sys.Launch("kv", 0, func(sp *core.DDCProc) {
		c, err := New(sys, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Begin(); err == nil {
			t.Fatal("Begin succeeded with an empty region pool")
		}
		c.Finish(sp, s)
		if _, err := c.Begin(); err != nil {
			t.Fatalf("Begin after Finish: %v", err)
		}
	})
	eng.Run()
}

// kvDecodeMajors runs prefill + decode on a cold cache and returns the
// decode-phase major faults plus the guide (nil on the unguided arm).
func kvDecodeMajors(t *testing.T, guided bool) (int64, *Guide) {
	p := DefaultParams()
	ws := int(uint64(p.Layers) * p.RegionPages())
	eng, sys := kvSystem(ws * 3 / 4) // smaller than one sequence: decode always refaults
	var g *Guide
	if guided {
		g = NewGuide(sys)
	}
	sys.Start()
	var majors int64
	sys.Launch("kv", 0, func(sp *core.DDCProc) {
		c, err := New(sys, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Prefill(sp, s, p.MaxTokens-8, g); err != nil {
			t.Fatal(err)
		}
		before := sys.MajorFaults.N
		for i := 0; i < 8; i++ {
			if _, err := c.DecodeStep(sp, s, g); err != nil {
				t.Fatal(err)
			}
		}
		majors = sys.MajorFaults.N - before
		if c.BadReads.N != 0 {
			t.Fatalf("%d bad reads", c.BadReads.N)
		}
	})
	eng.Run()
	return majors, g
}

// TestKVLayerwisePrefetchHitRate: the guide's layerwise prefetch must turn
// the bulk of decode's demand faults into hits — majors under the guide
// stay below 60 % of the unguided run, and every avoided fault is
// accounted for by a prefetched page.
func TestKVLayerwisePrefetchHitRate(t *testing.T) {
	none, _ := kvDecodeMajors(t, false)
	guided, g := kvDecodeMajors(t, true)
	if none == 0 {
		t.Fatal("unguided decode took no major faults — working set not cold")
	}
	if g.PrefetchPages.N == 0 {
		t.Fatal("guide issued no prefetches")
	}
	if guided*10 >= none*6 {
		t.Fatalf("guided decode took %d majors vs %d unguided — hit rate below 40%%", guided, none)
	}
	if avoided := none - guided; avoided > g.PrefetchPages.N {
		t.Fatalf("%d faults avoided but only %d pages prefetched", avoided, g.PrefetchPages.N)
	}
}

// TestKVSpillEarlyLayers: spilling keeps the tail layers resident, evicts
// the early ones, and decode reads after the spill still verify.
func TestKVSpillEarlyLayers(t *testing.T) {
	p := DefaultParams()
	p.FlushPrefill = false
	eng, sys := kvSystem(4096)
	sys.Start()
	sys.Launch("kv", 0, func(sp *core.DDCProc) {
		c, err := New(sys, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Prefill(sp, s, 64, nil); err != nil {
			t.Fatal(err)
		}
		const keep = 2
		n := c.SpillEarlyLayers(sp, s, keep)
		if n == 0 {
			t.Fatal("spill evicted nothing from a resident sequence")
		}
		for l := 0; l < p.Layers; l++ {
			v := pagetable.VPNOf(c.LayerAddr(s, l))
			resident := sys.Table.Lookup(v).Tag() == pagetable.TagLocal
			if l < p.Layers-keep && resident {
				t.Fatalf("layer %d still resident after spill", l)
			}
			if l >= p.Layers-keep && !resident {
				t.Fatalf("kept layer %d was evicted by spill", l)
			}
		}
		if again := c.SpillEarlyLayers(sp, s, keep); again != 0 {
			t.Fatalf("second spill evicted %d pages from remote layers", again)
		}
		if _, err := c.DecodeStep(sp, s, nil); err != nil {
			t.Fatal(err)
		}
		if c.BadReads.N != 0 {
			t.Fatalf("%d bad reads after spill — write-back lost KV", c.BadReads.N)
		}
	})
	eng.Run()
}

// kvRender runs a small guided workload and returns the final virtual
// time plus the rendered /metrics + /statusz page.
func kvRender(t *testing.T) (sim.Time, []byte) {
	p := DefaultParams()
	ws := int(uint64(p.Layers) * p.RegionPages())
	eng, sys := kvSystem(ws)
	g := NewGuide(sys)
	sys.Start()
	sys.Launch("kv", 0, func(sp *core.DDCProc) {
		c, err := New(sys, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Prefill(sp, s, 48, g); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := c.DecodeStep(sp, s, g); err != nil {
				t.Fatal(err)
			}
		}
		c.SpillEarlyLayers(sp, s, 2)
		c.Finish(sp, s)
	})
	eng.Run()
	page := obs.AppendMetrics(nil, sys.Registry().Snapshot(), sys.Tel)
	page = sys.AppendStatus(page, sys.Eng.Now())
	return eng.Now(), page
}

// TestKVSameSeedDeterminism: two identical runs end at the same virtual
// time and render byte-identical observability pages, kvcache families
// included.
func TestKVSameSeedDeterminism(t *testing.T) {
	t1, page1 := kvRender(t)
	t2, page2 := kvRender(t)
	if t1 != t2 {
		t.Fatalf("virtual end times differ: %v vs %v", t1, t2)
	}
	if !bytes.Equal(page1, page2) {
		t.Fatal("rendered observability pages differ between identical runs")
	}
	if !bytes.Contains(page1, []byte("kvcache_")) {
		t.Fatal("kvcache stat families missing from /metrics")
	}
	if !bytes.Contains(page1, []byte("kvcache live=")) {
		t.Fatal("kvcache section missing from /statusz")
	}
}
