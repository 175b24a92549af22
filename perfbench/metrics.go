package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// metricDef names one reported metric. These two lists are the single
// source of the names and units the benchmark prints; BENCHMARK.json at
// the repository root must declare exactly the same ones (a test checks).
type metricDef struct{ name, unit string }

// endToEnd are what users of the system see, measured with tracing off.
// Every workload carries all of them. The workload-specific user metrics
// (virtual-time throughput and latency, TTFT) and failed_op_ratio are in
// perLayer: a metric printed for every workload must mean something, and
// never be 0, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},           // median host time to build the system and fill its working set
	{"ops_per_s", "1/s"},       // ops per host wall second in the host-timed phase
	{"cpu_ns_per_op", "ns"},    // host user+sys CPU per op, every thread
	{"allocs_per_op", "count"}, // heap allocations per op
	{"peak_rss_mb", "MB"},      // peak resident set: through the window on the simulator, the whole run on loopback
	{"wall_p50_us", "us"},      // host wall time per op (per call on loopback)
	{"wall_p90_us", "us"},
}

// perLayer come from the traced run. Virtual-time values (units vt_*)
// and counters are taken over each simulator workload's deterministic
// window and repeat exactly for a seed; host times and replays are
// measured. A metric of a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	// Application-visible, virtual time (simulator workloads).
	{"vt_ops_per_s", "1/vt_s"}, // ops per virtual second; tok/s on kvdecode
	{"vt_p50_us", "vt_us"},     // virtual latency per op; TPOT on kvdecode
	{"vt_p99_us", "vt_us"},
	{"vt_ttft_us", "vt_us"}, // median virtual prefill time (kvdecode)
	{"failed_op_ratio", "ratio"},
	{"wall_p99_us", "us"}, // host wall time per op, from the traced run's untraced half

	// sim
	{"sim.switch_ns", "ns"},
	{"sim.switch_allocs", "count"},
	{"sim.run_host_s", "s"},

	// core
	{"core.access_host_ns_p50", "ns"},
	{"core.access_host_ns_p99", "ns"},
	{"core.major_faults_per_op", "count"},
	{"core.minor_faults_per_op", "count"},
	{"core.late_map_hits", "count"},
	{"core.fault_vt_ns_p50", "vt_ns"},
	{"core.fault_vt_ns_p99", "vt_ns"},
	{"core.allocs_per_fault", "count"},
	{"core.stage.exception_vt_ns", "vt_ns"},
	{"core.stage.lookup_vt_ns", "vt_ns"},
	{"core.stage.reclaim_vt_ns", "vt_ns"},
	{"core.stage.issue_vt_ns", "vt_ns"},
	{"core.stage.guide_vt_ns", "vt_ns"},
	{"core.stage.wait_vt_ns", "vt_ns"},
	{"core.stage.wake_vt_ns", "vt_ns"},
	{"core.stage.map_vt_ns", "vt_ns"},

	// pagetable, mmu, dram
	{"pagetable.lookup_ns", "ns"},
	{"pagetable.lookup_allocs", "count"},
	{"mmu.access_ns", "ns"},
	{"mmu.access_allocs", "count"},
	{"dram.alloc_free_ns", "ns"},
	{"dram.alloc_free_allocs", "count"},
	{"dram.cache_used_frames_max", "count"},

	// placement
	{"placement.resolve_ns", "ns"},
	{"placement.resolve_allocs", "count"},

	// fabric
	{"fabric.read_ns", "ns"},
	{"fabric.read_allocs", "count"},
	{"fabric.submit_ns", "ns"},
	{"fabric.submit_allocs", "count"},
	{"fabric.doorbells_per_op", "count"},
	{"fabric.ops_per_doorbell", "count"},
	{"fabric.coalesced_segs", "count"},
	{"fabric.rx_bytes_per_op", "B"},
	{"fabric.tx_bytes_per_op", "B"},
	{"fabric.rx_backlog_ns_max", "vt_ns"},
	{"fabric.tx_backlog_ns_max", "vt_ns"},
	{"fabric.failed_ops", "count"},

	// pagemgr
	{"pagemgr.cleaned_per_op", "count"},
	{"pagemgr.evicted_per_op", "count"},
	{"pagemgr.sync_writes", "count"},
	{"pagemgr.alloc_waits", "count"},
	{"pagemgr.steals", "count"},
	{"pagemgr.write_fails", "count"},
	{"pagemgr.free_frames_min", "count"},

	// prefetch
	{"prefetch.onfault_ns", "ns"},
	{"prefetch.onfault_allocs", "count"},
	{"prefetch.issued_per_op", "count"},
	{"prefetch.fails", "count"},
	{"prefetch.useful_ratio", "ratio"},

	// kvcache and its guide
	{"kvcache.prefill_host_us_p50", "us"},
	{"kvcache.decode_host_us_p50", "us"},
	{"kvcache.decode_host_us_p99", "us"},
	{"kvcache.finish_host_us_p50", "us"},
	{"kvcache.allocs_per_tok", "count"},
	{"kvcache.majors_per_tok", "count"},
	{"kvcache.guide_pages_per_tok", "count"},
	{"kvcache.flushed_pages", "count"},
	{"kvcache.freed_pages", "count"},
	{"kvcache.spilled_pages", "count"},
	{"kvcache.bad_reads", "count"},

	// transport and memnode
	{"transport.read_us_p50", "us"},
	{"transport.read_us_p99", "us"},
	{"transport.write_us_p50", "us"},
	{"transport.write_us_p99", "us"},
	{"transport.batch_us_p50", "us"},
	{"transport.allocs_per_op", "count"},
	{"transport.retries", "count"},
	{"transport.timeouts", "count"},
	{"transport.status_errors", "count"},
	{"transport.inflight_peak", "count"},
	{"memnode.served_ops", "count"},

	// the benchmark itself
	{"trace.overhead_pct", "%"},
	{"model.tab2_read_err_pct", "%"},
	{"model.tab2_write_err_pct", "%"},
}

// value is one measured metric with the number of samples behind it
// (1 for a ratio of totals).
type value struct {
	v       float64
	samples int64
}

// report is one run's outcome: correctness, the metric values, and the
// human-readable lines printed above the result.
type report struct {
	seed              uint64
	attempted, failed int64
	correct           bool
	values            map[string]value
	notes             []string
}

func newReport(seed uint64) *report {
	return &report{seed: seed, correct: true, values: map[string]value{}}
}

func (r *report) set(name string, v float64, samples int64) { r.values[name] = value{v, samples} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect; the command then exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.note("FAIL: "+format, args...)
}

// print writes the report table and, as the last line of standard
// output, the one-line JSON result carrying every metric of defs.
func (r *report) print(w *strings.Builder, defs []metricDef) {
	fmt.Fprintf(w, "%-30s %16s %-8s %10s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		v := r.values[d.name]
		fmt.Fprintf(w, "%-30s %16.6g %-8s %10d\n", d.name, v.v, d.unit, v.samples)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "{\"correct\":%t,\"attempted\":%d,\"failed\":%d,\"metrics\":{", r.correct, r.attempted, r.failed)
	for i, d := range defs {
		if i > 0 {
			w.WriteByte(',')
		}
		v := r.values[d.name].v
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // main has already failed the run
		}
		fmt.Fprintf(w, "%q:{\"value\":%s,\"unit\":%q}", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	w.WriteString("}}\n")
}
