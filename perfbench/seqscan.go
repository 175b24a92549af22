package main

import (
	"fmt"
	"math"

	"dilos/internal/core"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

// seqscan streams through a working set 8× the DRAM cache with the
// readahead prefetcher: a read pass, then a write pass, repeated. One op
// is one page touch (the first word of the page, as Table 2's SeqRead and
// SeqWrite do). Each read pass checks what the previous write pass (or
// set-up) stored; after the timed phase every page is read back.
//
// Loads: prefetch issue, batched fabric Submit/Coalesce, the per-core
// prefetch mappers, and the cleaner's sequential write-back. The major
// fault path is rare (one fault per readahead cluster).
// It is the one workload with a published reference: Table 2's
// DiLOS-readahead 3.74 GB/s read and 3.49 GB/s write.
var seqscanSpec = simSpec{
	name:      "seqscan",
	window:    4 * seqscanPages, // two read and two write passes
	timeEvery: 7,                // coprime with the 8-page readahead cluster
	build: func(seed uint64, tel *telemetry.Recorder) (*core.System, simState, error) {
		return buildWordWorkload(seed, tel, seqscanPages, prefetch.NewReadahead(0), func(w *wordWorkload) simState {
			return &seqscan{wordWorkload: w}
		})
	},
}

const seqscanPages = 16384

// Table 2, DiLOS with readahead (GB/s).
const (
	tab2ReadGBs  = 3.74
	tab2WriteGBs = 3.49
)

type seqscan struct {
	*wordWorkload
	readVT, writeVT   sim.Time // window virtual time spent in each pass kind
	readOps, writeOps int
	model             string // the window's GB/s beside Table 2's
}

// seqscanOp is op i: its page, and whether it belongs to a write pass
// (passes alternate read, write, read, ... after set-up's fill).
func seqscanOp(i, pages int) (page int, write bool) {
	return i % pages, (i/pages)%2 == 1
}

// seqValue is what the write pass of cycle c stores to a page.
func seqValue(seed uint64, c, page int) uint64 { return mix(seed ^ uint64(c+1)<<40 ^ uint64(page)) }

func (w *seqscan) op(sp *core.DDCProc, i int, tr *tracer, rec *streams) (sim.Time, bool) {
	page, write := seqscanOp(i, w.pages)
	var v uint64
	if write {
		v = seqValue(w.seed, i/w.pages, page)
	}
	vt, ok := w.access(sp, page, write, v, tr, rec)
	if rec != nil {
		if write {
			w.writeVT += vt
			w.writeOps++
		} else {
			w.readVT += vt
			w.readOps++
		}
	}
	return vt, ok
}

// windowValues reports the window's simulated GB/s against Table 2, as
// the absolute error in percent of the published value.
func (w *seqscan) windowValues(vals map[string]value) {
	gbs := func(ops int, vt sim.Time) float64 { return ratio(float64(ops)*core.PageSize, vt.Seconds()) / 1e9 }
	rd, wr := gbs(w.readOps, w.readVT), gbs(w.writeOps, w.writeVT)
	vals["model.tab2_read_err_pct"] = value{100 * math.Abs(rd-tab2ReadGBs) / tab2ReadGBs, int64(w.readOps)}
	vals["model.tab2_write_err_pct"] = value{100 * math.Abs(wr-tab2WriteGBs) / tab2WriteGBs, int64(w.writeOps)}
	w.model = fmt.Sprintf("model: seqscan simulates %.3f GB/s read and %.3f GB/s write; Table 2 publishes %.2f and %.2f for DiLOS with readahead",
		rd, wr, tab2ReadGBs, tab2WriteGBs)
}
