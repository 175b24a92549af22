package main

import (
	"dilos/internal/core"
	"dilos/internal/pagetable"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

// randfault isolates the major-fault path. 8-byte loads and stores, three
// loads to one store, go to uniformly random pages of a working set 8×
// the DRAM cache, with no prefetcher: nearly every access is a major
// fault with an eviction and a random write-back behind it.
//
// Loads: the sim hand-offs of every fault, pagetable and mmu walks,
// placement resolution, single fabric reads, pagemgr reclaim and its
// write-backs — the path a faster sim scheduler, an allocation-free
// fault path or a single manager configuration would change.
// Bypasses: prefetch and guides do no work, so a change there must not
// move this workload.
var randfaultSpec = simSpec{
	name:      "randfault",
	window:    100_000,
	timeEvery: 4,
	build: func(seed uint64, tel *telemetry.Recorder) (*core.System, simState, error) {
		const pages = 16384
		return buildWordWorkload(seed, tel, pages, nil, func(w *wordWorkload) simState {
			// Each page's probe word sits at a seeded offset.
			w.probe = func(page int) uint64 { return mix(seed^uint64(page)<<24) % (core.PageSize / 8) * 8 }
			return &randfault{wordWorkload: w, gen: newRNG(seed, 1)}
		})
	},
}

// wordWorkload is the state shared by randfault and seqscan: a mapped
// working set with one probe word per page, mirrored in a word shadow.
type wordWorkload struct {
	seed   uint64
	base   uint64
	pages  int
	probe  func(page int) uint64 // probe word's offset in its page
	shadow *wordShadow
}

func buildWordWorkload(seed uint64, tel *telemetry.Recorder, pages int, pf prefetch.Prefetcher,
	mk func(*wordWorkload) simState) (*core.System, simState, error) {
	cfg := prodConfig(uint64(pages), 0.125)
	cfg.Prefetcher = pf
	cfg.Tel = tel
	sys, err := core.NewSystem(sim.New(), core.WithConfig(cfg))
	if err != nil {
		return nil, nil, err
	}
	base, err := sys.MmapDDC(uint64(pages))
	if err != nil {
		return nil, nil, err
	}
	w := &wordWorkload{seed: seed, base: base, pages: pages, shadow: newWordShadow(pages)}
	st := mk(w)
	sys.Start()
	return sys, st, nil
}

func (w *wordWorkload) addr(page int) uint64 {
	off := uint64(0)
	if w.probe != nil {
		off = w.probe(page)
	}
	return w.base + uint64(page)*core.PageSize + off
}

// fill stores each page's initial value in address order; the cache ends
// full of the last pages, dirty.
func (w *wordWorkload) fill(sp *core.DDCProc) error {
	for p := 0; p < w.pages; p++ {
		v := mix(w.seed ^ uint64(p)<<20)
		sp.StoreU64(w.addr(p), v)
		w.shadow.set(p, v)
	}
	return nil
}

// verify reads every page back against the shadow.
func (w *wordWorkload) verify(sp *core.DDCProc) int64 {
	bad := int64(0)
	for p := 0; p < w.pages; p++ {
		if !w.shadow.check(p, sp.LoadU64(w.addr(p))) {
			bad++
		}
	}
	return bad
}

// access is one traced, shadow-checked 8-byte load or store of a page.
func (w *wordWorkload) access(sp *core.DDCProc, page int, store bool, v uint64, tr *tracer, rec *streams) (sim.Time, bool) {
	addr := w.addr(page)
	rec.touch(pagetable.VPNOf(addr))
	t0 := sp.Now()
	tr.begin("core.access")
	if store {
		sp.StoreU64(addr, v)
		tr.end()
		w.shadow.set(page, v)
		return sp.Now() - t0, true
	}
	got := sp.LoadU64(addr)
	tr.end()
	return sp.Now() - t0, w.shadow.check(page, got)
}

func (w *wordWorkload) between(*core.DDCProc, int, *tracer, *streams) {}

func (w *wordWorkload) windowValues(map[string]value) {}

type randfault struct {
	*wordWorkload
	gen *rng
}

// randfaultOp is one generated access.
type randfaultOp struct {
	page  int
	store bool
	val   uint64
}

func (g *rng) randfaultOp(pages int) randfaultOp {
	op := randfaultOp{page: int(g.intn(uint64(pages))), store: g.intn(4) == 0}
	if op.store {
		op.val = g.next()
	}
	return op
}

func (w *randfault) op(sp *core.DDCProc, i int, tr *tracer, rec *streams) (sim.Time, bool) {
	op := w.gen.randfaultOp(w.pages)
	return w.access(sp, op.page, op.store, op.val, tr, rec)
}
