// Command dilosbench regenerates the paper's tables and figures (§6) from
// the reproduction and prints them in the paper's format, with the
// published values alongside for comparison.
//
// The command itself is a thin driver: every experiment lives in
// internal/experiments and self-registers via experiments.Register, so
// -list, dispatch, and -json all run off the registry.
//
// Usage:
//
//	dilosbench -exp all          # everything (several minutes)
//	dilosbench -exp tab2         # one artifact
//	dilosbench -list             # what's available
//	dilosbench -exp fig7a -scale 2   # larger working sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -debug-addr; no handlers registered unless it serves
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"time"

	"dilos/internal/experiments"
	"dilos/internal/obs"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

// writeMemProfile dumps a heap profile for -memprofile (after a GC, so the
// profile reflects live simulator state rather than garbage).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// coresList is the parsed -cores sweep (empty = defaults, no sweep).
var coresList []int

// parseCores parses a -cores comma list like "1,2,4,8".
func parseCores(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-cores wants a comma list of positive core counts, got %q", spec)
		}
		out = append(out, n)
	}
	return out, nil
}

// runExp runs one experiment, once per -cores setting when a sweep is
// active. CoresAware experiments (ext10) sweep core counts internally, so
// they consume the list directly instead of being looped.
func runExp(e experiments.Entry, sc experiments.Scale) {
	if len(coresList) == 0 || e.CoresAware {
		e.Run(sc)
		return
	}
	for i, n := range coresList {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== cores=%d ===\n", n)
		experiments.CoreCount = n
		e.Run(sc)
	}
	experiments.CoreCount = 0
}

func main() {
	exp := flag.String("exp", "", "experiment id (see -list) or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	scale := flag.Float64("scale", 1, "working-set scale multiplier")
	asJSON := flag.Bool("json", false, "emit structured JSON instead of tables")
	withStats := flag.Bool("stats", false,
		"capture a full stats snapshot per system run and dump them as JSON")
	flag.Uint64Var(&experiments.ChaosSeed, "chaos-seed", 42,
		"seed for the seeded experiments' deterministic fault injection and determinism legs (same seed ⇒ identical run)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator itself to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	traceOut := flag.String("trace-out", "",
		"record a flight-recorder trace and write it as Perfetto/Chrome JSON to this file (the last system run of the invocation wins)")
	sampleInterval := flag.Duration("sample-interval", 50*time.Microsecond,
		"virtual-time gauge sampling interval for -trace-out counter tracks (0 disables them)")
	flag.IntVar(&experiments.MigrateDrainNode, "migrate-drain", 2,
		"memory node ext7 drains out of its 3-node pool (0-2)")
	flag.Float64Var(&experiments.MigrateWatermark, "migrate-watermark", 0,
		"occupancy-imbalance fraction that arms continuous auto-rebalancing on ext7's migration engine (0 = drain/join only)")
	flag.Int64Var(&experiments.TenantAggressorRate, "tenant-rate", experiments.TenantAggressorRate,
		"fabric token-bucket rate (bytes/s) capping ext8's aggressor tenant in the isolated leg")
	flag.IntVar(&experiments.KVLayers, "kv-layers", experiments.KVLayers,
		"ext12: transformer layers per sequence")
	flag.IntVar(&experiments.KVSeqs, "kv-seqs", experiments.KVSeqs,
		"ext12: concurrent sequences in the KV-cache batch")
	flag.IntVar(&experiments.KVDecode, "kv-decode", experiments.KVDecode,
		"ext12: decode steps per sequence after prefill")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /statusz, /journalz, /healthz on this address for the duration of the invocation (pages refresh after every system run)")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof on this address (off by default; see DESIGN.md §14 for the profiling workflow)")
	coresSpec := flag.String("cores", "",
		"comma list of core counts (e.g. 1,2,4,8): run each experiment once per setting, one paging shard per core (one stats block per setting); ext10 sweeps exactly this list")
	flag.BoolVar(&experiments.WideLocks, "wide-locks", false,
		"with -cores: boot DiLOS with the shared-structure wide-lock baseline instead of per-core shards (ext10's ablation arm, for ad-hoc runs)")
	flag.Parse()
	var err error
	if coresList, err = parseCores(*coresSpec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(coresList) > 0 {
		experiments.ScalingCores = coresList
	}
	if experiments.WideLocks && len(coresList) == 0 {
		fmt.Fprintln(os.Stderr, "-wide-locks needs -cores")
		os.Exit(2)
	}
	if experiments.MigrateDrainNode < 0 || experiments.MigrateDrainNode > 2 {
		fmt.Fprintf(os.Stderr, "-migrate-drain must be 0-2, got %d\n", experiments.MigrateDrainNode)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)
	jsonOut = *asJSON
	statsOut = *withStats
	if *traceOut != "" {
		experiments.Telemetry = true
		experiments.SampleEvery = sim.Time((*sampleInterval).Nanoseconds())
		experiments.TelemetrySink = func(label string, rec *telemetry.Recorder, sam *telemetry.Sampler) {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			if err := telemetry.WritePerfetto(f, rec, sam); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "trace: wrote %s (%s)\n", *traceOut, label)
		}
	}
	if statsOut {
		experiments.Collect = func(label string, snap stats.Snapshot) {
			statsDump = append(statsDump, labeledSnapshot{Label: label, Stats: snap})
		}
	}
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", *debugAddr)
	}
	if *metricsAddr != "" {
		srv := obs.NewServer()
		addr, err := srv.ListenAndServe(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving /metrics on http://%s/\n", addr)
		// Each finished system run re-publishes the exporter pages; the
		// scrape target stays live across the whole batch.
		prev := experiments.Collect
		experiments.Collect = func(label string, snap stats.Snapshot) {
			if prev != nil {
				prev(label, snap)
			}
			srv.PublishMetrics(obs.AppendMetrics(nil, snap, nil))
			srv.PublishStatus([]byte("dilosbench last run: " + label + "\n"))
		}
	}

	if *list || *exp == "" {
		fmt.Println("experiments (pass -exp <id> or -exp all):")
		for _, e := range experiments.Entries() {
			fmt.Printf("  %-7s %s\n", e.ID, e.Desc)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	sc := scaled(*scale)
	if jsonOut {
		runJSON(sc, *exp)
		return
	}
	if *exp == "all" {
		for _, e := range experiments.Entries() {
			runExp(e, sc)
			fmt.Println()
		}
		dumpStats()
		return
	}
	for _, id := range strings.Split(*exp, ",") {
		e, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		runExp(e, sc)
		fmt.Println()
	}
	dumpStats()
}

// dumpStats prints the accumulated per-run snapshots after the tables.
func dumpStats() {
	if !statsOut {
		return
	}
	fmt.Println("stats snapshots (one object per system run):")
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(statsDump); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func scaled(mult float64) experiments.Scale {
	sc := experiments.DefaultScale()
	m := func(v uint64) uint64 { return uint64(float64(v) * mult) }
	sc.SeqPages = m(sc.SeqPages)
	sc.QuicksortN = m(sc.QuicksortN)
	sc.KMeansPoints = m(sc.KMeansPoints)
	sc.SnappyBytes = m(sc.SnappyBytes)
	sc.DataframeRows = m(sc.DataframeRows)
	sc.RedisKeys4K = int(float64(sc.RedisKeys4K) * mult)
	sc.RedisKeys64K = int(float64(sc.RedisKeys64K) * mult)
	sc.RedisKeysMix = int(float64(sc.RedisKeysMix) * mult)
	sc.RedisListElem = int(float64(sc.RedisListElem) * mult)
	return sc
}

// jsonOut switches the harness into structured output.
var jsonOut bool

// statsOut enables the per-run stats snapshot dump (-stats); statsDump
// accumulates whatever the experiments.Collect hook hands back.
var statsOut bool

type labeledSnapshot struct {
	Label string         `json:"label"`
	Stats stats.Snapshot `json:"stats"`
}

var statsDump []labeledSnapshot

func runJSON(sc experiments.Scale, exp string) {
	out := map[string]any{}
	var entries []experiments.Entry
	if exp == "all" {
		entries = experiments.Entries()
	} else {
		for _, id := range strings.Split(exp, ",") {
			e, ok := experiments.Lookup(id)
			if !ok || e.JSON == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			entries = append(entries, e)
		}
	}
	for _, e := range entries {
		if e.JSON == nil {
			continue
		}
		out[e.ID] = e.JSON(sc)
	}
	var doc any = out
	if statsOut {
		doc = map[string]any{"results": out, "stats": statsDump}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
