package main

import (
	"fmt"

	"dilos/internal/core"
	"dilos/internal/kvcache"
	"dilos/internal/pagemgr"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

// kvdecode is a longer ext12 guided arm at 12.5 % cache: 16 live
// sequences of the default 8-layer model decode round-robin, one op per
// DecodeStep. Prefill lengths are seeded; a sequence that reaches
// MaxTokens finishes (DiscardRange frees its frames, its regions are
// recycled) and a fresh sequence is prefilled in its place, and one
// SpillEarlyLayers runs mid-window. Every decode read is checked by the
// kvcache itself; any kvcache.bad_reads increment fails the op.
//
// Loads: the layerwise guide and its prefetches, PageOutRange and
// DiscardRange, region recycling, and appends beside reads. A change to
// prefetch headroom or guide accounting should move TPOT here and not on
// randfault.
var kvdecodeSpec = simSpec{
	name:      "kvdecode",
	window:    kvWindow,
	timeEvery: 1,
	build:     buildKV,
}

const (
	kvWindow     = 3000
	kvSeqs       = 16
	kvMinPrefill = 96  // prefill lengths are seeded in [kvMinPrefill, kvMaxPrefill)
	kvMaxPrefill = 224 // leaves every sequence at least 32 decode steps
	kvKeepLayers = 2   // SpillEarlyLayers keeps the last two layers resident
)

type kvdecode struct {
	sys   *core.System
	c     *kvcache.Cache
	g     *kvcache.Guide
	seqs  []*kvcache.Sequence
	gen   *rng
	ttft  []int64 // virtual prefill times: set-up and window
	spill int     // op index of the one SpillEarlyLayers
}

func buildKV(seed uint64, tel *telemetry.Recorder) (*core.System, simState, error) {
	p := kvcache.DefaultParams()
	ws := uint64(kvSeqs*p.Layers) * p.RegionPages()
	cfg := prodConfig(ws, 0.125)
	cfg.Tel = tel
	// As in ext12: prefetch never forces reclamation, so the watermarks
	// must cover a layerwise burst.
	mcfg := pagemgr.DefaultConfig(cfg.CacheFrames)
	mcfg.LowWater = cfg.CacheFrames / 4
	mcfg.HighWater = cfg.CacheFrames / 2
	cfg.Mgr = &mcfg
	sys, err := core.NewSystem(sim.New(), core.WithConfig(cfg))
	if err != nil {
		return nil, nil, err
	}
	w := &kvdecode{sys: sys, g: kvcache.NewGuide(sys), gen: newRNG(seed, 2), spill: kvWindow / 2}
	if w.c, err = kvcache.New(sys, p, kvSeqs); err != nil {
		return nil, nil, err
	}
	sys.Start()
	return sys, w, nil
}

// prefillLen draws the next seeded prompt length.
func (g *rng) prefillLen() int { return kvMinPrefill + int(g.intn(kvMaxPrefill-kvMinPrefill)) }

func (w *kvdecode) prefill(sp *core.DDCProc, tr *tracer, record bool) (*kvcache.Sequence, error) {
	s, err := w.c.Begin()
	if err != nil {
		return nil, err
	}
	n := w.gen.prefillLen()
	t0 := sp.Now()
	tr.begin("kvcache.prefill")
	err = w.c.Prefill(sp, s, n, w.g)
	tr.end()
	if record {
		w.ttft = append(w.ttft, int64(sp.Now()-t0))
	}
	return s, err
}

func (w *kvdecode) fill(sp *core.DDCProc) error {
	for i := 0; i < kvSeqs; i++ {
		s, err := w.prefill(sp, nil, true)
		if err != nil {
			return err
		}
		w.seqs = append(w.seqs, s)
	}
	return nil
}

// between is the churn: the sequence the previous op decoded, if that
// step filled it, finishes while its last layers are still resident, and
// a fresh prompt is prefilled into its regions.
func (w *kvdecode) between(sp *core.DDCProc, i int, tr *tracer, rec *streams) {
	k := (i + kvSeqs - 1) % kvSeqs
	if i == 0 || w.seqs[k].Tokens() < w.c.P.MaxTokens {
		return
	}
	tr.begin("kvcache.finish")
	w.c.Finish(sp, w.seqs[k])
	tr.end()
	var err error
	if w.seqs[k], err = w.prefill(sp, tr, rec != nil); err != nil {
		panic(fmt.Sprintf("kvdecode: re-prefill: %v", err)) // Finish just freed the regions
	}
}

func (w *kvdecode) op(sp *core.DDCProc, i int, tr *tracer, rec *streams) (sim.Time, bool) {
	k := i % kvSeqs
	s := w.seqs[k]
	if rec != nil {
		// The pages this step reads: every layer's live tokens.
		for l := 0; l < w.c.P.Layers; l++ {
			a := w.c.LayerAddr(s, l)
			for v := pagetable.VPNOf(a); v <= pagetable.VPNOf(a+uint64(s.Tokens())*w.c.P.BytesPerToken-1); v++ {
				rec.touch(v)
			}
		}
	}
	bad := w.c.BadReads.N
	tr.begin("kvcache.decode")
	d, err := w.c.DecodeStep(sp, s, w.g)
	tr.end()
	if i == w.spill {
		tr.begin("kvcache.spill")
		w.c.SpillEarlyLayers(sp, s, kvKeepLayers)
		tr.end()
	}
	return d, err == nil && w.c.BadReads.N == bad
}

// verify has nothing left to read back: every decode read was checked.
func (w *kvdecode) verify(*core.DDCProc) int64 { return 0 }

func (w *kvdecode) windowValues(vals map[string]value) {
	vals["vt_ttft_us"] = value{percentile(w.ttft, 50) / 1e3, int64(len(w.ttft))}
}
