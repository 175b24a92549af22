// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): one constructor per artifact, each returning structured
// rows that cmd/dilosbench prints in the paper's format. DESIGN.md's
// per-experiment index maps each function here to its paper artifact,
// workload, and modules; EXPERIMENTS.md records paper-vs-measured.
//
// Scale: the paper's working sets are 8–40 GB; these runs default to
// MiB-scale working sets with the same local-cache *fractions*
// (12.5/25/50/100 %), which preserve every shape the paper reports (see
// DESIGN.md §2). Scale can be raised via the Scale struct.
package experiments

import (
	"fmt"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/fastswap"
	"dilos/internal/guide"
	"dilos/internal/pagemgr"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/space"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

// Collect, when set, receives a labeled stats.Snapshot for every system an
// experiment runs — cmd/dilosbench wires it to -stats. Snapshots are taken
// after the simulation finishes, so they cover the whole run.
var Collect func(label string, snap stats.Snapshot)

// CoreCount, when positive, overrides the 4-core default of the systems
// the figure/table experiments boot (DiLOS then runs one paging shard per
// core) — cmd/dilosbench wires it to -cores. Zero keeps every
// experiment's committed default configuration.
var CoreCount int

// WideLocks, when set alongside CoreCount, boots DiLOS systems with the
// shared-structure wide-lock baseline (one shard, one manager-wide lock)
// instead of per-core shards — the ablation arm ext10 measures, exposed
// for ad-hoc -cores runs.
var WideLocks bool

// applyCores applies the -cores override to one DiLOS config.
func applyCores(cfg *core.Config) {
	if CoreCount <= 0 {
		return
	}
	cfg.Cores = CoreCount
	if WideLocks {
		cfg.Shards = 1
		cfg.WideLocks = true
	}
}

// Telemetry, when set, boots every system the experiments construct with a
// flight recorder and gauge sampler — cmd/dilosbench wires it to
// -trace-out. The recording itself never perturbs simulated time.
var Telemetry bool

// SampleEvery is the gauge-sampling interval used when Telemetry is on.
// Zero keeps the recorder but disables periodic sampling.
var SampleEvery sim.Time

// TelemetrySink, when set, receives each labeled run's recorder and
// sampler after the simulation finishes (sam may be nil).
var TelemetrySink func(label string, rec *telemetry.Recorder, sam *telemetry.Sampler)

// statsSource is any paging system exposing its metric registry.
type statsSource interface{ Registry() *stats.Registry }

// telemetrySource is any paging system exposing its flight recorder.
type telemetrySource interface {
	Telemetry() (*telemetry.Recorder, *telemetry.Sampler)
}

// collect feeds sys's snapshot to the Collect hook, if one is installed,
// and its flight recording to the TelemetrySink.
func collect(label string, sys statsSource) {
	if CoreCount > 0 {
		// One stats block per -cores setting: the label carries the sweep
		// point so blocks from different settings never alias.
		label = fmt.Sprintf("cores%d/%s", CoreCount, label)
	}
	if Collect != nil {
		Collect(label, sys.Registry().Snapshot())
	}
	if TelemetrySink != nil {
		if ts, ok := sys.(telemetrySource); ok {
			if rec, sam := ts.Telemetry(); rec != nil {
				TelemetrySink(label, rec, sam)
			}
		}
	}
}

// recorderFor returns a fresh flight recorder when Telemetry is on.
func recorderFor() *telemetry.Recorder {
	if !Telemetry {
		return nil
	}
	return telemetry.NewRecorder(0)
}

// Scale sizes the workloads. Zero values select the defaults.
type Scale struct {
	SeqPages      uint64 // sequential read/write working set (pages)
	QuicksortN    uint64 // elements (u64)
	KMeansPoints  uint64
	SnappyBytes   uint64
	DataframeRows uint64
	GraphScale    int // RMAT scale (2^scale vertices)
	RedisKeys4K   int
	RedisKeys64K  int
	RedisKeysMix  int
	RedisQueries  int
	RedisLists    int
	RedisListElem int
}

// DefaultScale is used by the benchmarks and dilosbench unless overridden.
func DefaultScale() Scale {
	return Scale{
		SeqPages:      16384, // 64 MiB
		QuicksortN:    1 << 20,
		KMeansPoints:  150_000,
		SnappyBytes:   8 << 20,
		DataframeRows: 150_000,
		GraphScale:    13,
		RedisKeys4K:   1500,
		RedisKeys64K:  150,
		RedisKeysMix:  240,
		RedisQueries:  3000,
		RedisLists:    64,
		RedisListElem: 12000,
	}
}

// CacheFractions are the local-memory fractions the paper sweeps.
var CacheFractions = []float64{0.125, 0.25, 0.5, 1.0}

// FracLabel formats a cache fraction the way the paper's axes do.
func FracLabel(f float64) string {
	switch f {
	case 0.125:
		return "12.5%"
	case 0.25:
		return "25%"
	case 0.5:
		return "50%"
	case 1.0:
		return "100%"
	}
	return ""
}

// SystemKind names an evaluated system configuration.
type SystemKind string

// The configurations the evaluation compares.
const (
	SysFastswap   SystemKind = "Fastswap"
	SysDiLOSNone  SystemKind = "DiLOS no-prefetch"
	SysDiLOSRA    SystemKind = "DiLOS readahead"
	SysDiLOSTrend SystemKind = "DiLOS trend-based"
	SysDiLOSApp   SystemKind = "DiLOS app-aware"
	SysDiLOSTCP   SystemKind = "DiLOS-TCP"
	SysAIFM       SystemKind = "AIFM"
)

// frames computes the cache size for a working set and fraction, with a
// floor so daemons have room to breathe.
func frames(workingSetPages uint64, frac float64) int {
	f := int(float64(workingSetPages) * frac)
	if f < 96 {
		f = 96
	}
	return f
}

// dilos boots a DiLOS node for a working set.
func dilos(eng *sim.Engine, wsPages uint64, frac float64, pf prefetch.Prefetcher,
	g guide.Guide, eg pagemgr.EvictionGuide, tcp bool) *core.System {
	params := fabric.DefaultParams()
	if tcp {
		params = fabric.TCPParams()
	}
	cfg := core.Config{
		CacheFrames:   frames(wsPages, frac),
		Cores:         4,
		RemoteBytes:   wsPages*core.PageSize + (64 << 20),
		Fabric:        params,
		Prefetcher:    pf,
		EvictionGuide: eg,
		Tel:           recorderFor(),
		SampleEvery:   SampleEvery,
	}
	applyCores(&cfg)
	sys := core.New(eng, cfg)
	if g != nil {
		sys.AttachGuide(g)
	}
	sys.Start()
	return sys
}

// fswap boots a Fastswap node for a working set.
func fswap(eng *sim.Engine, wsPages uint64, frac float64) *fastswap.System {
	cores := 4
	if CoreCount > 0 {
		cores = CoreCount
	}
	sys := fastswap.New(eng, fastswap.Config{
		CacheFrames: frames(wsPages, frac),
		Cores:       cores,
		RemoteBytes: wsPages*fastswap.PageSize + (64 << 20),
		Fabric:      fabric.DefaultParams(),
		Tel:         recorderFor(),
		SampleEvery: SampleEvery,
	})
	sys.Start()
	return sys
}

// pfFor builds the prefetcher for a DiLOS flavour.
func pfFor(kind SystemKind) prefetch.Prefetcher {
	switch kind {
	case SysDiLOSRA, SysDiLOSTCP:
		return prefetch.NewReadahead(0)
	case SysDiLOSTrend:
		return prefetch.NewTrend()
	default:
		return nil
	}
}

// spaceLike abbreviates space.Space in the experiment closures.
type spaceLike = space.Space

// runOn runs fn on the named paging system and returns elapsed virtual
// time plus the fault counters — the common harness for Figures 7–9.
func runOn(kind SystemKind, wsPages uint64, frac float64,
	fn func(sp space.Space, mmap func(uint64) (uint64, error))) (sim.Time, int64, int64) {
	eng := sim.New()
	var elapsed sim.Time
	var major, minor int64
	switch kind {
	case SysFastswap:
		sys := fswap(eng, wsPages, frac)
		sys.Launch("app", 0, func(sp *fastswap.FSProc) {
			t0 := sp.Now()
			fn(sp, sys.MmapDDC)
			elapsed = sp.Now() - t0
		})
		eng.Run()
		major, minor = sys.MajorFaults.N, sys.MinorFaults.N
		collect(string(kind)+"/"+FracLabel(frac), sys)
	default:
		sys := dilos(eng, wsPages, frac, pfFor(kind), nil, nil, kind == SysDiLOSTCP)
		sys.Launch("app", 0, func(sp *core.DDCProc) {
			t0 := sp.Now()
			fn(sp, sys.MmapDDC)
			elapsed = sp.Now() - t0
		})
		eng.Run()
		major, minor = sys.MajorFaults.N, sys.MinorFaults.N
		collect(string(kind)+"/"+FracLabel(frac), sys)
	}
	return elapsed, major, minor
}
