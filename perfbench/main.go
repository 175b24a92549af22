// Command perfbench is the repository's benchmark: four seeded workloads
// that measure what the reproduction costs on the host and what it
// models in virtual time, end to end and layer by layer.
//
//	perfbench --workload randfault|seqscan|kvdecode|loopback --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that reports the per-layer metrics and
// writes its spans under .perfbench/. Every read a workload makes is
// checked against a host-side shadow before anything is reported; the
// last line of standard output is the JSON result, and any failed op
// makes the command exit non-zero. run.sh builds and runs it.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

var simSpecs = map[string]*simSpec{
	"randfault": &randfaultSpec,
	"seqscan":   &seqscanSpec,
	"kvdecode":  &kvdecodeSpec,
}

func main() {
	// One P: the simulator hands control between goroutines on every
	// fault, and loopback's callers, lanes and server share the process.
	// With a P per vCPU those hand-offs become cross-thread wake-ups whose
	// cost depends on whether the other vCPU is busy or descheduled by the
	// hypervisor, which is the host's scheduling rather than the program's
	// cost. On one P they are goroutine switches, and the rotor spreads
	// the one busy thread evenly over the CPUs.
	runtime.GOMAXPROCS(1)
	rotor = newCPURotor()
	workload := flag.String("workload", "", "randfault, seqscan, kvdecode or loopback")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "host seconds the timed phase runs")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	r := newReport(*seed)
	dur := time.Duration(*seconds) * time.Second
	traced := *trace == 1
	var err error
	switch spec := simSpecs[*workload]; {
	case spec != nil:
		err = runSim(spec, *seed, dur, traced, r)
		if spec != &seqscanSpec {
			r.note("model: %s's virtual-time numbers are unvalidated; the repository holds no reference for them", *workload)
		}
	case *workload == "loopback":
		err = runLoopback(*seed, dur, traced, r)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if r.failed > 0 {
		r.fail("%d of %d ops failed their shadow check or returned an error", r.failed, r.attempted)
	}
	for _, d := range defs {
		if v := r.values[d.name].v; math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("%s is not a number", d.name)
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	r.print(&out, defs)
	os.Stdout.WriteString(out.String())
	if !r.correct {
		os.Exit(1)
	}
}

// finishTrace writes the traced run's spans and adds the self-time table
// to the report.
func finishTrace(r *report, tr *tracer, workload string) error {
	path := filepath.Join(".perfbench", fmt.Sprintf("trace-%s-seed%d.json", workload, r.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.note("spans: %d kept in %s (%d beyond the cap counted in the totals only)", len(tr.spans), path, tr.dropped)
	r.notes = append(r.notes, tr.summary()...)
	return nil
}
