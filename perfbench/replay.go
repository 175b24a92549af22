package main

import (
	"runtime"
	"time"

	"dilos/internal/dram"
	"dilos/internal/fabric"
	"dilos/internal/memnode"
	"dilos/internal/mmu"
	"dilos/internal/pagetable"
	"dilos/internal/placement"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
)

// Layer replays time one layer's public functions in a loop fed by the
// workload's own recorded page stream, outside the system, and report ns
// and heap allocations per call. pagemgr's sweeps have no public entry
// point; its registry counters cover it instead.

const (
	replayBudget  = 200 * time.Millisecond // host time per replay loop
	replayChunk   = 256                    // calls between clock checks
	replayFrames  = 1024                   // DRAM frames backing the mmu and dram replays
	replayRemote  = 4096                   // remote pages the fabric replays address
	replayWindow  = 7                      // fabric.submit batch: readahead's default window
	replayHeld    = 64                     // frames the dram replay keeps allocated
	replayProtKey = 0xd170
)

// replaySink keeps replayed calls' results live.
var replaySink uint64

// timeLoop runs body over consecutive call indices for replayBudget and
// sets the layer's ns and allocations per call.
func timeLoop(r *report, tr *tracer, name string, body func(i int)) {
	tr.begin("replay." + name)
	defer tr.end()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for time.Since(t0) < replayBudget {
		for k := 0; k < replayChunk; k++ {
			body(n)
			n++
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	setReplay(r, name, el, m1.Mallocs-m0.Mallocs, n)
}

func setReplay(r *report, name string, el time.Duration, mallocs uint64, n int) {
	r.set(name+"_ns", float64(el.Nanoseconds())/float64(n), int64(n))
	r.set(name+"_allocs", float64(mallocs)/float64(n), int64(n))
}

// timeProcLoop is timeLoop for calls that must run inside a sim process:
// procs sim processes run body in turn until the budget is spent. It
// returns the host time spent in Engine.Run.
func timeProcLoop(r *report, tr *tracer, name string, procs int, body func(p *sim.Proc, i int)) time.Duration {
	tr.begin("replay." + name)
	defer tr.end()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	eng := sim.New()
	t0 := time.Now()
	n, stop := 0, false
	for k := 0; k < procs; k++ {
		eng.Go(name, func(p *sim.Proc) {
			for !stop {
				body(p, n)
				n++
				if n%replayChunk == 0 && time.Since(t0) >= replayBudget {
					stop = true
				}
			}
		})
	}
	eng.Run()
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	setReplay(r, name, el, m1.Mallocs-m0.Mallocs, n)
	return el
}

// noFaults is the mmu replay's fault handler: every replayed page is
// resident, so a fault is a bug in the replay.
type noFaults struct{}

func (noFaults) HandleFault(*mmu.Core, pagetable.VPN, bool) { panic("perfbench: mmu replay faulted") }

// runReplays runs every layer replay over s, sets the *_ns and *_allocs
// metrics, and returns the host time spent inside Engine.Run.
func runReplays(r *report, tr *tracer, s *streams) time.Duration {
	pages, faults := s.pages, s.faults
	if len(pages) == 0 {
		r.fail("replays: the window recorded no pages")
		return 0
	}
	if len(faults) == 0 {
		faults = pages
	}
	at := func(vs []pagetable.VPN, i int) pagetable.VPN { return vs[i%len(vs)] }

	// sim: the Proc.Sleep hand-off between two procs, sleeping the
	// workload's recorded virtual op latencies.
	run := timeProcLoop(r, tr, "sim.switch", 2, func(p *sim.Proc, i int) {
		d := sim.Time(1)
		if len(s.vtLat) > 0 {
			d = max(1, sim.Time(s.vtLat[i%len(s.vtLat)]))
		}
		p.Sleep(d)
	})

	// pagetable: Lookup over the page stream in a table holding it.
	tbl := pagetable.New()
	lo, hi := pages[0], pages[0]
	for _, v := range pages {
		tbl.Set(v, pagetable.Remote(uint64(v)))
		lo, hi = min(lo, v), max(hi, v)
	}
	timeLoop(r, tr, "pagetable.lookup", func(i int) { replaySink += uint64(tbl.Lookup(at(pages, i))) })

	// mmu: LoadU64 over a fully resident table — TLB hits and misses,
	// no faults.
	pool := dram.NewPool(replayFrames)
	res := pagetable.New()
	for i, v := range pages {
		res.Set(v, pagetable.Local(uint64(i%replayFrames), true))
	}
	var c *mmu.Core
	run += timeProcLoop(r, tr, "mmu.access", 1, func(p *sim.Proc, i int) {
		if c == nil {
			c = mmu.NewCore(p, res, pool, noFaults{})
		}
		replaySink += c.LoadU64(at(pages, i).Addr())
	})

	// dram: Alloc plus the Free of a held frame the stream picks.
	fp := dram.NewPool(replayFrames)
	held := make([]dram.FrameID, 0, replayHeld)
	timeLoop(r, tr, "dram.alloc_free", func(i int) {
		if len(held) == replayHeld {
			j := int(uint64(at(pages, i)) % replayHeld)
			fp.Free(held[j])
			held[j] = held[replayHeld-1]
			held = held[:replayHeld-1]
		}
		id, _ := fp.Alloc()
		held = append(held, id)
	})

	// placement: Resolve and WriteSlots of each page in a region as large
	// as the stream's span.
	span := uint64(hi-lo) + 1
	sp := placement.New(placement.Config{})
	reg, err := sp.Map(span, func(int, uint64) (uint64, error) { return 0, nil })
	if err != nil {
		r.fail("replays: placement map: %v", err)
		return run
	}
	timeLoop(r, tr, "placement.resolve", func(i int) {
		v := reg.BaseVPN + at(pages, i) - lo
		a, _, _ := sp.Resolve(v)
		b, _ := sp.WriteSlots(v)
		replaySink += uint64(len(a) + len(b))
	})

	// fabric: single-page QP.Read, and Coalesce+Submit of a readahead
	// window, at the stream's pages.
	node := memnode.New(replayRemote*memnode.PageSize, replayProtKey)
	qp := fabric.NewLink(node, fabric.DefaultParams()).MustQP("replay", replayProtKey)
	buf := make([]byte, memnode.PageSize)
	var now sim.Time
	timeLoop(r, tr, "fabric.read", func(i int) {
		off := uint64(at(pages, i)) % replayRemote * memnode.PageSize
		now = qp.Read(now, off, buf).CompleteAt
	})
	segs := make([]fabric.Seg, replayWindow)
	for k := range segs {
		segs[k].Buf = make([]byte, memnode.PageSize)
	}
	var reqs []fabric.Req
	var ops []*fabric.Op
	timeLoop(r, tr, "fabric.submit", func(i int) {
		first := uint64(at(pages, i)) % (replayRemote - replayWindow)
		for k := range segs {
			segs[k].Off = (first + uint64(k)) * memnode.PageSize
		}
		reqs = qp.Coalesce(fabric.OpRead, segs, reqs[:0])
		ops = qp.Submit(now, reqs, ops[:0])
		now = ops[len(ops)-1].CompleteAt
	})

	// prefetch: Readahead.OnFault over the fault stream.
	ra := prefetch.NewReadahead(0)
	timeLoop(r, tr, "prefetch.onfault", func(i int) {
		replaySink += uint64(len(ra.OnFault(prefetch.Context{VPN: at(faults, i), Major: true})))
	})
	return run
}
