package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

// The simulator workloads share one harness. A run builds the system,
// fills the working set inside one sim process, and then executes the
// workload's op stream in that same process: first a fixed window of ops
// whose virtual-time results and registry counters are deterministic for
// the seed, then the host-timed phase, which continues the stream for
// --seconds of host time. Virtual-time metrics and counters cover the
// window only, so they repeat exactly however fast the host is; host
// metrics cover the host-timed phase only.

const (
	setupReps   = 9    // set-ups per untraced run; setup_s is their median
	telTrackCap = 4096 // flight-recorder spans per track on the traced run
	checkEvery  = 16   // ops between host-clock deadline checks
	gaugeEvery  = 8    // window ops between gauge samples
)

// prodConfig is the production configuration every simulator workload
// runs: the sharded, batched page manager on 2 simulated cores, with the
// local DRAM cache at frac of the working set.
func prodConfig(wsPages uint64, frac float64) core.Config {
	return core.Config{
		CacheFrames: int(float64(wsPages) * frac),
		Cores:       2,
		Shards:      2,
		Batch:       true,
		RemoteBytes: wsPages*core.PageSize + 4<<20,
		Fabric:      fabric.DefaultParams(),
	}
}

// simSpec is one simulator workload.
type simSpec struct {
	name      string
	window    int // ops in the deterministic window
	timeEvery int // untraced runs host-time 1 in timeEvery ops
	// build assembles and starts a system for the seed (tel non-nil on the
	// traced run) and the workload's state over it.
	build func(seed uint64, tel *telemetry.Recorder) (*core.System, simState, error)
}

// simState is a workload's per-system state: its op generator and shadow.
type simState interface {
	// fill writes the working set (set-up).
	fill(sp *core.DDCProc) error
	// between runs before op i, outside its latency sample: work that
	// belongs to the workload but is not part of an op (kvdecode's churn).
	between(sp *core.DDCProc, i int, tr *tracer, rec *streams)
	// op executes op i and returns its virtual latency and whether every
	// value it read matched the shadow. rec, non-nil inside the window,
	// collects the pages the op touched.
	op(sp *core.DDCProc, i int, tr *tracer, rec *streams) (sim.Time, bool)
	// verify reads back what the timed phase wrote; returns mismatches.
	verify(sp *core.DDCProc) int64
	// windowValues adds workload-specific deterministic window metrics.
	windowValues(vals map[string]value)
}

// streams are the address and latency streams recorded in the window;
// the layer replays are fed from them.
type streams struct {
	pages  []pagetable.VPN // every page each op touched, in order
	faults []pagetable.VPN // pages of the ops that took a major fault
	vtLat  []int64         // virtual latency per op (ns)
}

func (s *streams) touch(v pagetable.VPN) {
	if s != nil {
		s.pages = append(s.pages, v)
	}
}

// window is the deterministic part of a run.
type window struct {
	streams
	start, end stats.Snapshot
	anatomy    telemetry.Anatomy
	values     map[string]value // workload-specific window metrics
	rssMB      float64          // peak resident set through set-up and the window
	print      []byte           // everything that must repeat for the seed
}

// simRun is the outcome of one system's life.
type simRun struct {
	setup     time.Duration
	runHost   time.Duration // host time inside Engine.Run
	state     simState
	win       *window
	slices    *slicer // the host-timed phase
	majors    int64   // major faults in the timed phase
	attempted int64
	failed    int64
}

type simOpts struct {
	timed     time.Duration // 0: stop after the window
	setupOnly bool
	tr        *tracer // non-nil: traced run (spans plus the flight recorder)
}

func runSimOnce(spec *simSpec, seed uint64, o simOpts) (*simRun, error) {
	out := &simRun{}
	var tel *telemetry.Recorder
	if o.tr != nil {
		tel = telemetry.NewRecorder(telTrackCap)
	}
	rotor.step()
	t0 := time.Now()
	o.tr.begin("setup.build")
	sys, st, err := spec.build(seed, tel)
	o.tr.end()
	if err != nil {
		return nil, err
	}
	out.state = st
	var runErr error
	sys.Launch("perfbench", 0, func(sp *core.DDCProc) {
		o.tr.begin("setup.fill")
		err := st.fill(sp)
		o.tr.end()
		out.setup = time.Since(t0)
		if err != nil {
			runErr = fmt.Errorf("set-up: %w", err)
			return
		}
		if !o.setupOnly {
			out.timed(spec, sys, st, sp, o)
		}
	})
	o.tr.begin("sim.engine_run")
	r0 := time.Now()
	sys.Eng.Run()
	out.runHost = time.Since(r0)
	o.tr.end()
	return out, runErr
}

// timed runs the window, then the host-timed phase.
func (out *simRun) timed(spec *simSpec, sys *core.System, st simState, sp *core.DDCProc, o simOpts) {
	sys.FaultLat.Reset()
	sys.MinorFaultLat.Reset()
	w := &window{start: sys.Registry().Snapshot()}
	i := 0
	for ; i < spec.window; i++ {
		st.between(sp, i, o.tr, &w.streams)
		majors, touched := sys.MajorFaults.N, len(w.pages)
		o.tr.begin("op")
		vt, ok := st.op(sp, i, o.tr, &w.streams)
		o.tr.end()
		if !ok {
			out.failed++
		}
		w.vtLat = append(w.vtLat, int64(vt))
		if sys.MajorFaults.N > majors {
			w.faults = append(w.faults, w.pages[touched:]...)
		}
		if i%gaugeEvery == 0 {
			sys.SampleGauges(sp.Now())
		}
	}
	closeWindow(w, sys, st)
	out.win = w

	if o.timed > 0 {
		majors := sys.MajorFaults.N
		sl := newSlicer(o.timed)
		for n := int64(1); ; i, n = i+1, n+1 {
			st.between(sp, i, o.tr, nil)
			sample := o.tr == nil && i%spec.timeEvery == 0
			var t0 time.Time
			if sample {
				t0 = time.Now()
			}
			o.tr.begin("op")
			_, ok := st.op(sp, i, o.tr, nil)
			o.tr.end()
			if !ok {
				out.failed++
			}
			if sample {
				now := time.Now()
				sl.record(int64(now.Sub(t0)))
				if sl.tick(now, n) {
					break
				}
			} else if n%checkEvery == 0 && sl.tick(time.Now(), n) {
				break
			}
		}
		i++
		out.slices = sl
		out.majors = sys.MajorFaults.N - majors
	}
	out.attempted = int64(i)
	out.failed += st.verify(sp)
}

// closeWindow snapshots the registry and fingerprints everything that
// must repeat for the seed.
func closeWindow(w *window, sys *core.System, st simState) {
	w.rssMB = peakRSSMB()
	w.end = sys.Registry().Snapshot()
	if sys.Tel != nil {
		w.anatomy = telemetry.FaultAnatomy(sys.Tel)
	}
	w.values = map[string]value{}
	st.windowValues(w.values)
	h := fnv.New64a()
	for _, s := range [][]int64{w.vtLat, vpnsToInt(w.pages), vpnsToInt(w.faults)} {
		for _, v := range s {
			fmt.Fprintf(h, "%d,", v)
		}
		h.Write([]byte{';'})
	}
	snap, err := json.Marshal([]any{w.start, w.end})
	if err != nil {
		panic(err) // a Snapshot is plain data; marshalling cannot fail
	}
	keys := make([]string, 0, len(w.values))
	for k := range w.values {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.print = fmt.Appendf(nil, "streams=%x\n%s\n", h.Sum64(), snap)
	for _, k := range keys {
		w.print = fmt.Appendf(w.print, "%s=%v/%d\n", k, w.values[k].v, w.values[k].samples)
	}
}

func vpnsToInt(vs []pagetable.VPN) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = int64(v)
	}
	return out
}

// runSim is one benchmark run of a simulator workload.
//
// Untraced: setupReps systems are built and filled (setup_s is the
// median). The first also runs the window alone; the last runs the full
// timed phase, and its window must reproduce the first's byte for byte.
//
// Traced: the window-only run, an untraced timed half, then a traced
// half on a fresh system with the flight recorder attached, then the
// layer replays over the window's streams.
func runSim(spec *simSpec, seed uint64, seconds time.Duration, traced bool, r *report) error {
	first, err := runSimOnce(spec, seed, simOpts{})
	if err != nil {
		return err
	}
	setups := []float64{first.setup.Seconds()}
	releaseMemory()
	timed := seconds
	if traced {
		timed = seconds / 2
	} else {
		for k := 2; k < setupReps; k++ {
			s, err := runSimOnce(spec, seed, simOpts{setupOnly: true})
			if err != nil {
				return err
			}
			setups = append(setups, s.setup.Seconds())
			releaseMemory()
		}
	}
	base, err := runSimOnce(spec, seed, simOpts{timed: timed})
	if err != nil {
		return err
	}
	setups = append(setups, base.setup.Seconds())
	r.attempted, r.failed = base.attempted, base.failed
	checkSame(r, "same-seed window", first.win, base.win)
	if ss, ok := base.state.(*seqscan); ok {
		r.note("%s", ss.model)
	}

	if !traced {
		r.set("setup_s", median(setups), int64(len(setups)))
		base.slices.setEndToEnd(r)
		r.set("peak_rss_mb", base.win.rssMB, 1)
		return nil
	}

	releaseMemory()
	tr := newTracer()
	tracedRun, err := runSimOnce(spec, seed, simOpts{timed: timed, tr: tr})
	if err != nil {
		return err
	}
	r.attempted += tracedRun.attempted
	r.failed += tracedRun.failed
	w := tracedRun.win
	checkSame(r, "traced window", first.win, w)
	setWindowMetrics(r, w)
	base.slices.setP99(r)
	if v := r.values["core.stage.reclaim_vt_ns"].v; v != 0 {
		r.note("invariant broken: reclamation ran on the fault path (%v vt ns per fault)", v)
	}
	if v := r.values["pagemgr.sync_writes"].v; v != 0 {
		r.note("invariant broken: %v synchronous write-backs", v)
	}
	r.set("core.allocs_per_fault", ratio(float64(base.slices.total().mallocs), float64(base.majors)), base.majors)
	setOverhead(r, base.slices, tracedRun.slices)
	access := tr.durs("core.access")
	r.set("core.access_host_ns_p50", percentile(access, 50), int64(len(access)))
	r.set("core.access_host_ns_p99", percentile(access, 99), int64(len(access)))
	if ts := tr.durs("kvcache.decode"); len(ts) > 0 {
		r.set("kvcache.decode_host_us_p50", percentile(ts, 50)/1e3, int64(len(ts)))
		r.set("kvcache.decode_host_us_p99", percentile(ts, 99)/1e3, int64(len(ts)))
		pf, fin := tr.durs("kvcache.prefill"), tr.durs("kvcache.finish")
		r.set("kvcache.prefill_host_us_p50", percentile(pf, 50)/1e3, int64(len(pf)))
		r.set("kvcache.finish_host_us_p50", percentile(fin, 50)/1e3, int64(len(fin)))
		r.set("kvcache.allocs_per_tok", base.slices.total().allocsPerOp(), base.slices.total().ops)
	}
	runHost := tracedRun.runHost + runReplays(r, tr, &w.streams)
	r.set("sim.run_host_s", runHost.Seconds(), 1)
	return finishTrace(r, tr, spec.name)
}

// checkSame fails the run unless two windows of one seed are identical.
func checkSame(r *report, what string, a, b *window) {
	if a == nil || b == nil {
		r.fail("%s: a window did not complete", what)
		return
	}
	h := fnv.New64a()
	h.Write(a.print)
	if string(a.print) != string(b.print) {
		r.fail("%s: virtual-time results and counters differ between two runs of one seed", what)
		return
	}
	r.note("determinism: %s of %d ops identical across two runs of the seed (%d bytes, fnv64 %016x)",
		what, len(a.vtLat), len(a.print), h.Sum64())
}

// setWindowMetrics derives the deterministic per-layer metrics from the
// window's registry snapshots and streams.
func setWindowMetrics(r *report, w *window) {
	ops := int64(len(w.vtLat))
	n := float64(ops)
	d := func(name string) float64 {
		a, _ := w.start.Counter(name)
		b, _ := w.end.Counter(name)
		return float64(b - a)
	}
	perOp := func(metric, counter string) { r.set(metric, d(counter)/n, ops) }
	count := func(metric, counter string) { r.set(metric, d(counter), ops) }

	var vtSum int64
	for _, v := range w.vtLat {
		vtSum += v
	}
	r.set("vt_ops_per_s", ratio(n, float64(vtSum)/1e9), ops)
	r.set("vt_p50_us", percentile(w.vtLat, 50)/1e3, ops)
	r.set("vt_p99_us", percentile(w.vtLat, 99)/1e3, ops)
	r.set("failed_op_ratio", ratio(float64(r.failed), float64(r.attempted)), r.attempted)

	perOp("core.major_faults_per_op", "dilos.major_faults")
	perOp("core.minor_faults_per_op", "dilos.minor_faults")
	count("core.late_map_hits", "dilos.late_map_hits")
	if h, ok := w.end.Histogram("dilos.fault_latency"); ok {
		r.set("core.fault_vt_ns_p50", float64(h.P50Ns), int64(h.Count))
		r.set("core.fault_vt_ns_p99", float64(h.P99Ns), int64(h.Count))
	}
	for _, st := range w.anatomy.Stages {
		r.set("core.stage."+st.Stage+"_vt_ns", float64(st.MeanNs), int64(w.anatomy.Faults))
	}
	if g, ok := w.end.Gauge("dilos.cache_used_frames"); ok {
		r.set("dram.cache_used_frames_max", float64(g.Max), ops/gaugeEvery)
	}

	const link = "link.node0."
	perOp("fabric.doorbells_per_op", link+"batch.doorbells")
	r.set("fabric.ops_per_doorbell", ratio(d(link+"batch.ops"), d(link+"batch.doorbells")), int64(d(link+"batch.doorbells")))
	count("fabric.coalesced_segs", link+"batch.coalesced_segs")
	perOp("fabric.rx_bytes_per_op", link+"rx.bytes")
	perOp("fabric.tx_bytes_per_op", link+"tx.bytes")
	for _, dir := range []string{"rx", "tx"} {
		if g, ok := w.end.Gauge(link + dir + ".backlog_ns"); ok {
			r.set("fabric."+dir+"_backlog_ns_max", float64(g.Max), ops/gaugeEvery)
		}
	}
	count("fabric.failed_ops", link+"failed.ops")

	perOp("pagemgr.cleaned_per_op", "pagemgr.cleaned")
	perOp("pagemgr.evicted_per_op", "pagemgr.evicted")
	count("pagemgr.sync_writes", "pagemgr.sync_writes")
	count("pagemgr.alloc_waits", "pagemgr.alloc_waits")
	count("pagemgr.steals", "pagemgr.steals")
	count("pagemgr.write_fails", "pagemgr.write_fails")
	if g, ok := w.end.Gauge("pagemgr.free_frames"); ok {
		r.set("pagemgr.free_frames_min", float64(g.Min), ops/gaugeEvery)
	}

	perOp("prefetch.issued_per_op", "dilos.prefetches")
	count("prefetch.fails", "dilos.prefetch_fails")
	// After Leap: a prefetcher is judged by the pages that were touched
	// without a major fault, per page it fetched.
	touched := float64(len(w.pages))
	r.set("prefetch.useful_ratio", ratio(touched-d("dilos.major_faults"), d("dilos.prefetches")), int64(d("dilos.prefetches")))

	if _, ok := w.end.Counter("kvcache.appends"); ok {
		perOp("kvcache.majors_per_tok", "dilos.major_faults")
		perOp("kvcache.guide_pages_per_tok", "kvcache.guide_prefetch_pages")
		count("kvcache.flushed_pages", "kvcache.flushed_pages")
		count("kvcache.freed_pages", "kvcache.freed_pages")
		count("kvcache.spilled_pages", "kvcache.spilled_pages")
		count("kvcache.bad_reads", "kvcache.bad_reads")
	}
	for k, v := range w.values {
		r.values[k] = v
	}
}
