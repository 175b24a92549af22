package core

import (
	"testing"

	"dilos/internal/fabric"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
)

// newHugeSys boots a sharded system with enough frames that a huge fault
// always has its 512-frame headroom.
func newHugeSys(t testing.TB, frames, shards int) (*System, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: frames,
		Cores:       2,
		Shards:      shards,
		RemoteBytes: 256 << 20,
		Fabric:      fabric.DefaultParams(),
	})
	sys.Start()
	return sys, eng
}

// TestHugeFaultMapsWholeRegion: one touch anywhere in a 2 MB huge region
// must fault exactly once and leave all 512 pages Local — the streaming
// read that follows finds every page already mapped.
func TestHugeFaultMapsWholeRegion(t *testing.T) {
	sys, eng := newHugeSys(t, 2*HugePages, 2)
	var base uint64
	sys.Launch("app", 0, func(sp *DDCProc) {
		var err error
		base, err = sys.MmapDDCHuge(1)
		if err != nil {
			t.Error(err)
			return
		}
		// Touch the middle of the region, not page 0: the whole region must
		// map regardless of which page trapped.
		sp.LoadU8(base + 300*PageSize)
		for i := uint64(0); i < HugePages; i++ {
			sp.LoadU8(base + i*PageSize)
		}
	})
	eng.Run()
	if sys.MajorFaults.N != 1 {
		t.Fatalf("major faults = %d, want 1 for a full 2 MB region", sys.MajorFaults.N)
	}
	if sys.MinorFaults.N != 0 {
		t.Fatalf("minor faults = %d, want 0", sys.MinorFaults.N)
	}
	start := pagetable.VPNOf(base)
	for i := pagetable.VPN(0); i < HugePages; i++ {
		if tag := sys.Table.Lookup(start + i).Tag(); tag != pagetable.TagLocal {
			t.Fatalf("page %d of the region is %v, want local", i, tag)
		}
	}
}

// TestHugeWriteSurvivesEviction drives a huge-backed working set through
// eviction pressure and checks data integrity: the cleaner's sub-span
// write-back and the reclaimer must not lose dirty huge-region bytes.
func TestHugeWriteSurvivesEviction(t *testing.T) {
	// Two regions but room for ~1.5: the second huge fault lacks headroom,
	// falls back to single-page faults, and forces eviction of region one.
	sys, eng := newHugeSys(t, HugePages+HugePages/2, 2)
	var failed bool
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, err := sys.MmapDDCHuge(2)
		if err != nil {
			t.Error(err)
			return
		}
		pages := uint64(2 * HugePages)
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, i*2654435761+1)
		}
		for i := uint64(0); i < pages; i++ {
			if got := sp.LoadU64(base + i*PageSize); got != i*2654435761+1 {
				t.Errorf("page %d: got %d", i, got)
				failed = true
				return
			}
		}
	})
	eng.Run()
	if failed {
		return
	}
	if sys.Mgr.Evicted.N == 0 {
		t.Fatal("no evictions despite pressure")
	}
}

// TestHugeCleanerSubSpanGranularity dirties a single page of a resident
// huge region and lets the cleaner run: the write-back must cover that
// page's 32 KiB sub-span — not just the page, and never the whole 2 MB
// region.
func TestHugeCleanerSubSpanGranularity(t *testing.T) {
	sys, eng := newHugeSys(t, 2*HugePages, 2)
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, err := sys.MmapDDCHuge(1)
		if err != nil {
			t.Error(err)
			return
		}
		sp.LoadU8(base) // fault the region in
		// Dirty exactly one page, inside the third granule.
		sp.StoreU64(base+17*PageSize, 0xabcdef)
		// Idle long enough for several cleaner periods — Sleep yields to the
		// daemons (Compute would just advance the local clock).
		sp.Proc().Sleep(sim.Millisecond)
	})
	eng.Run()
	cleaned := sys.Mgr.Cleaned.N
	if cleaned < HugeSubPages {
		t.Fatalf("cleaned %d pages, want at least the %d-page sub-span", cleaned, HugeSubPages)
	}
	if cleaned >= HugePages {
		t.Fatalf("cleaned %d pages — whole-region write-back instead of the %d-page sub-span",
			cleaned, HugeSubPages)
	}
}
