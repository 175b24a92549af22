// Human-readable renderers: one print function per artifact, each
// registered as a registry Entry so cmd/dilosbench stays a thin flag
// parser. Formats mirror the paper's tables, with the published values
// quoted alongside. The single init below registers every classic
// artifact in the paper's order; extensions self-register here too and
// sort by number in Entries().
package experiments

import (
	"fmt"
	"sort"

	"dilos/internal/sim"
	"dilos/internal/stats"
)

func init() {
	reg := func(id, desc string, run func(sc Scale)) { Register(id, desc, false, run) }
	reg("fig1", "Fastswap fault-handler latency breakdown", runFig1)
	reg("fig2", "RDMA latency vs object size", func(Scale) { runFig2() })
	reg("tab1", "fault counts, sequential read on Fastswap", runTab1)
	reg("tab2", "sequential read/write throughput (GB/s)", runTab2)
	reg("fig6", "fault latency breakdown, DiLOS vs Fastswap", runFig6)
	reg("tab3", "fault counts, sequential read, all systems", runTab3)
	reg("fig7a", "quicksort completion time", wrapCompletion("Figure 7(a) — quicksort", Fig7a, "s"))
	reg("fig7b", "k-means completion time", wrapCompletion("Figure 7(b) — k-means", Fig7b, "s"))
	reg("fig7c", "snappy compression completion time", wrapCompletion("Figure 7(c) — compression", Fig7c, "ms"))
	reg("fig7d", "snappy decompression completion time", wrapCompletion("Figure 7(d) — decompression", Fig7d, "ms"))
	reg("fig8", "DataFrame NYC-taxi completion time", wrapCompletion("Figure 8 — DataFrame (NYC taxi)", Fig8, "ms"))
	reg("fig9a", "GAPBS PageRank, 4 threads", wrapCompletion("Figure 9(a) — PageRank", Fig9a, "ms"))
	reg("fig9b", "GAPBS betweenness centrality, 4 threads", wrapCompletion("Figure 9(b) — betweenness centrality", Fig9b, "ms"))
	reg("fig10a", "Redis GET throughput, 4 KiB values", wrapRedis("Figure 10(a) — GET 4KiB", Fig10a))
	reg("fig10b", "Redis GET throughput, 64 KiB values", wrapRedis("Figure 10(b) — GET 64KiB", Fig10b))
	reg("fig10c", "Redis GET throughput, mixed sizes", wrapRedis("Figure 10(c) — GET mixed", Fig10c))
	reg("fig10d", "Redis LRANGE_100 throughput", wrapRedis("Figure 10(d) — LRANGE_100", Fig10d))
	reg("tab4", "Redis tail latency, GET(mixed) + LRANGE", runTab4)
	reg("fig12", "bandwidth with guided paging, DEL + GET", runFig12)
	reg("abl1", "ablation: eager vs on-demand reclamation", runAbl1)
	reg("abl2", "ablation: shared-nothing vs shared queues", runAbl2)
	reg("ext1", "extension: sharding across 1/2/4 memory nodes", runExt1)
	reg("ext2", "extension: PageRank thread scaling on DiLOS", runExt2)
	reg("ext3", "extension: placement policies across 4 memory nodes", runExt3)
	reg("ext4", "extension: chaos — node crash, failover, recovery", runExt4)
	reg("ext6", "extension: per-fault latency anatomy from the flight recorder", runExt6)
	reg("ext7", "extension: elastic pool — live drain + migration under load", runExt7)
	reg("ext8", "extension: multi-tenant pool — noisy neighbour vs QoS quotas", runExt8)
	Register("ext10", "extension: per-core fault-path scaling — sharded vs shared manager", true, runExt10)
	reg("ext11", "extension: always-on observability plane — overhead + burn-rate detection", runExt11)

	RegisterJSON("fig1", func(sc Scale) any { return Fig1(sc) })
	RegisterJSON("fig2", func(Scale) any { return Fig2() })
	RegisterJSON("tab1", func(sc Scale) any { return Tab1(sc) })
	RegisterJSON("tab2", func(sc Scale) any { return Tab2(sc) })
	RegisterJSON("fig6", func(sc Scale) any { return Fig6(sc) })
	RegisterJSON("tab3", func(sc Scale) any { return Tab3(sc) })
	RegisterJSON("fig7a", func(sc Scale) any { return Fig7a(sc) })
	RegisterJSON("fig7b", func(sc Scale) any { return Fig7b(sc) })
	RegisterJSON("fig7c", func(sc Scale) any { return Fig7c(sc) })
	RegisterJSON("fig7d", func(sc Scale) any { return Fig7d(sc) })
	RegisterJSON("fig8", func(sc Scale) any { return Fig8(sc) })
	RegisterJSON("fig9a", func(sc Scale) any { return Fig9a(sc) })
	RegisterJSON("fig9b", func(sc Scale) any { return Fig9b(sc) })
	RegisterJSON("fig10a", func(sc Scale) any { return Fig10a(sc) })
	RegisterJSON("fig10b", func(sc Scale) any { return Fig10b(sc) })
	RegisterJSON("fig10c", func(sc Scale) any { return Fig10c(sc) })
	RegisterJSON("fig10d", func(sc Scale) any { return Fig10d(sc) })
	RegisterJSON("tab4", func(sc Scale) any { return Tab4(sc) })
	RegisterJSON("fig12", func(sc Scale) any { return Fig12(sc) })
	RegisterJSON("abl1", func(sc Scale) any { return AblationEagerEviction(sc) })
	RegisterJSON("abl2", func(sc Scale) any { return AblationSharedQueue(sc) })
	RegisterJSON("ext1", func(sc Scale) any { return ExtMultiNode(sc) })
	RegisterJSON("ext2", func(sc Scale) any { return ExtThreadScaling(sc) })
	RegisterJSON("ext3", func(sc Scale) any { return ExtPlacement(sc) })
	RegisterJSON("ext4", func(sc Scale) any { return ExtChaos(sc, ChaosSeed) })
	RegisterJSON("ext6", func(sc Scale) any { return ExtAnatomy(sc) })
	RegisterJSON("ext7", func(sc Scale) any { return ExtElastic(sc, ChaosSeed) })
	RegisterJSON("ext8", func(sc Scale) any { return ExtTenant(sc) })
	RegisterJSON("ext10", func(sc Scale) any { return ExtScaling(sc) })
	RegisterJSON("ext11", func(sc Scale) any { return ExtObs(sc, ChaosSeed) })
}

func us(t sim.Time) string { return fmt.Sprintf("%6.2f", t.Micros()) }

func runFig1(sc Scale) {
	fmt.Println("Figure 1 — Fastswap page fault handler latency breakdown (µs)")
	fmt.Println("  [paper: average ≈6.2µs total with 46% fetch, 9% exception, 29% reclaim]")
	printBreakdown(Fig1(sc))
}

func runFig6(sc Scale) {
	fmt.Println("Figure 6 — fault latency breakdown, DiLOS vs Fastswap (µs)")
	fmt.Println("  [paper: DiLOS cuts fault latency ≈49%; DiLOS reclaim = 0]")
	printBreakdown(Fig6(sc))
}

func printBreakdown(rows []BreakdownRow) {
	fmt.Printf("  %-22s %9s %9s %9s %9s %9s %9s\n",
		"", "exception", "software", "fetch", "map", "reclaim", "total")
	for _, r := range rows {
		fmt.Printf("  %-22s %9s %9s %9s %9s %9s %9s\n",
			r.Label, us(r.Exception), us(r.Software), us(r.Fetch), us(r.Map), us(r.Reclaim), us(r.Total))
	}
}

func runFig2() {
	fmt.Println("Figure 2 — one-sided RDMA latency (µs) per object size")
	fmt.Println("  [paper: 4KiB costs only ≈0.6µs more than 128B]")
	fmt.Printf("  %8s %10s %10s\n", "size", "read", "write")
	for _, r := range Fig2() {
		fmt.Printf("  %8d %10s %10s\n", r.Size, us(r.ReadLat), us(r.WriteLat))
	}
}

func runTab1(sc Scale) {
	fmt.Println("Table 1 — page faults during sequential read on Fastswap")
	fmt.Printf("  [paper: 655,737 major (12.5%%) / 4,587,164 minor (87.5%%) on 20GB]\n")
	r := Tab1(sc)
	printFaultRows([]FaultCountRow{r})
}

func runTab3(sc Scale) {
	fmt.Println("Table 3 — page faults during sequential read")
	fmt.Println("  [paper: DiLOS-readahead ≈25% fewer minor faults than Fastswap]")
	printFaultRows(Tab3(sc))
}

func printFaultRows(rows []FaultCountRow) {
	fmt.Printf("  %-22s %10s %10s %10s %8s\n", "", "major", "minor", "total", "major%")
	for _, r := range rows {
		fmt.Printf("  %-22s %10d %10d %10d %7.1f%%\n",
			r.System, r.Major, r.Minor, r.Total, 100*float64(r.Major)/float64(r.Total))
	}
}

func runTab2(sc Scale) {
	fmt.Println("Table 2 — sequential read/write throughput (GB/s)")
	fmt.Println("  [paper: Fastswap 0.98/0.49; DiLOS none 1.24/1.14; readahead 3.74/3.49; trend 3.73/3.49]")
	fmt.Printf("  %-22s %8s %8s\n", "", "read", "write")
	for _, r := range Tab2(sc) {
		fmt.Printf("  %-22s %8.2f %8.2f\n", r.System, r.ReadGBs, r.WriteGBs)
	}
}

func wrapCompletion(title string, fn func(Scale) []CompletionRow, unit string) func(Scale) {
	return func(sc Scale) {
		fmt.Println(title + " — completion time (lower is better)")
		rows := fn(sc)
		printCompletion(rows, unit)
	}
}

func printCompletion(rows []CompletionRow, unit string) {
	// Group: system → fraction → time.
	systems := []SystemKind{}
	seen := map[SystemKind]bool{}
	fracs := []float64{}
	seenF := map[float64]bool{}
	for _, r := range rows {
		if !seen[r.System] {
			seen[r.System] = true
			systems = append(systems, r.System)
		}
		if !seenF[r.Fraction] {
			seenF[r.Fraction] = true
			fracs = append(fracs, r.Fraction)
		}
	}
	sort.Float64s(fracs)
	fmt.Printf("  %-22s", "local memory:")
	for _, f := range fracs {
		fmt.Printf(" %9s", FracLabel(f))
	}
	fmt.Println()
	for _, s := range systems {
		fmt.Printf("  %-22s", s)
		for _, f := range fracs {
			for _, r := range rows {
				if r.System == s && r.Fraction == f {
					switch unit {
					case "s":
						fmt.Printf(" %9.3f", r.Elapsed.Seconds())
					default:
						fmt.Printf(" %9.2f", float64(r.Elapsed)/1e6)
					}
				}
			}
		}
		fmt.Printf("  (%s)\n", unit)
	}
}

func wrapRedis(title string, fn func(Scale) []RedisRow) func(Scale) {
	return func(sc Scale) {
		fmt.Println(title + " — throughput (ops/s, higher is better)")
		rows := fn(sc)
		systems := []SystemKind{}
		seen := map[SystemKind]bool{}
		fracs := []float64{}
		seenF := map[float64]bool{}
		for _, r := range rows {
			if !seen[r.System] {
				seen[r.System] = true
				systems = append(systems, r.System)
			}
			if !seenF[r.Fraction] {
				seenF[r.Fraction] = true
				fracs = append(fracs, r.Fraction)
			}
		}
		sort.Float64s(fracs)
		fmt.Printf("  %-22s", "local memory:")
		for _, f := range fracs {
			fmt.Printf(" %10s", FracLabel(f))
		}
		fmt.Println()
		for _, s := range systems {
			fmt.Printf("  %-22s", s)
			for _, f := range fracs {
				for _, r := range rows {
					if r.System == s && r.Fraction == f {
						fmt.Printf(" %10.0f", r.OpsPerS)
					}
				}
			}
			fmt.Println()
		}
	}
}

func runTab4(sc Scale) {
	fmt.Println("Table 4 — tail latency at 12.5% local memory (µs)")
	fmt.Println("  [paper (ms, 20GB sets): Fastswap GET 10.0/11.0, LRANGE 25.8/34.3;")
	fmt.Println("   DiLOS app-aware GET 3.0/4.0, LRANGE 14.6/18.4]")
	fmt.Printf("  %-22s %12s %12s %12s %12s %12s %12s\n",
		"", "GET p99", "GET p99.9", "LRANGE p99", "LRANGE p99.9", "major p99", "minor p99")
	for _, r := range Tab4(sc) {
		fmt.Printf("  %-22s %12s %12s %12s %12s %12s %12s\n",
			r.System, us(r.GetP99), us(r.GetP999), us(r.LRangeP99), us(r.LRangeP999),
			us(r.MajorFaultP99), us(r.MinorFaultP99))
	}
}

func runFig12(sc Scale) {
	fmt.Println("Figure 12 — network traffic with guided paging (DEL churn, then GET sweep)")
	fmt.Println("  [paper: guided paging saves 12% on DEL, 29% on GET]")
	rows := Fig12(sc)
	fmt.Printf("  %-22s %12s %12s %14s\n", "", "DEL tx (MB)", "GET rx (MB)", "saved (bytes)")
	for _, r := range rows {
		label := "default paging"
		if r.Guided {
			label = "guided paging"
		}
		fmt.Printf("  %-22s %12.2f %12.2f %14d\n", label, r.DelTxMB, r.GetRxMB, r.SavedBytes)
	}
	def, g := rows[0], rows[1]
	fmt.Printf("  reduction: DEL %.0f%%, GET %.0f%%\n",
		100*(1-g.DelTxMB/def.DelTxMB), 100*(1-g.GetRxMB/def.GetRxMB))
	fmt.Println("  rx bandwidth over time (default vs guided):")
	fmt.Printf("    default %s\n", sparkline(def.RxSeries, 64))
	fmt.Printf("    guided  %s\n", sparkline(g.RxSeries, 64))
}

// sparkline renders a bandwidth series as unicode blocks, resampled to
// `width` buckets and normalized across the series.
func sparkline(pts []stats.BandwidthPoint, width int) string {
	if len(pts) == 0 {
		return "(empty)"
	}
	blocks := []rune(" ▁▂▃▄▅▆▇█")
	resampled := make([]float64, width)
	for i, p := range pts {
		resampled[i*width/len(pts)] += p.BytesPerSec
	}
	max := 0.0
	for _, v := range resampled {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return "(idle)"
	}
	out := make([]rune, width)
	for i, v := range resampled {
		idx := int(v / max * float64(len(blocks)-1))
		out[i] = blocks[idx]
	}
	return string(out)
}

func runAbl1(sc Scale) {
	fmt.Println("Ablation — eager background reclamation (§4.4) vs on-demand")
	fmt.Printf("  %-32s %8s %8s %12s\n", "", "read", "write", "alloc waits")
	for _, r := range AblationEagerEviction(sc) {
		fmt.Printf("  %-32s %8.2f %8.2f %12d\n", r.Label, r.ReadGBs, r.WriteGBs, r.AllocWait)
	}
}

func runAbl2(sc Scale) {
	fmt.Println("Ablation — shared-nothing per-module queues (§4.5) vs one queue per core")
	fmt.Printf("  %-32s %8s %14s\n", "", "write", "fault p99")
	for _, r := range AblationSharedQueue(sc) {
		fmt.Printf("  %-32s %8.2f %14s\n", r.Label, r.WriteGBs, us(r.FaultP99))
	}
}

func runExt2(sc Scale) {
	fmt.Println("Extension — PageRank thread scaling on DiLOS, 12.5% local memory")
	fmt.Printf("  %-10s %12s\n", "threads", "time (ms)")
	for _, r := range ExtThreadScaling(sc) {
		fmt.Printf("  %-10d %12.2f\n", r.Workers, float64(r.Elapsed)/1e6)
	}
}

func runExt1(sc Scale) {
	fmt.Println("Extension — page-striped sharding across memory nodes (§5.1 future work)")
	fmt.Printf("  %-10s %10s   %s\n", "nodes", "read GB/s", "RX GB per node")
	for _, r := range ExtMultiNode(sc) {
		fmt.Printf("  %-10d %10.2f   %v\n", r.Nodes, r.ReadGBs, r.PerLink)
	}
}

func runExt3(sc Scale) {
	fmt.Println("Extension — placement policies, sequential read over 4 memory nodes")
	fmt.Printf("  %-10s %10s %8s   %s\n", "policy", "read GB/s", "spread", "RX GB per node")
	for _, r := range ExtPlacement(sc) {
		fmt.Printf("  %-10s %10.2f %8.2f   %v\n", r.Policy, r.ReadGBs, r.Spread, r.PerLink)
	}
}

func runExt4(sc Scale) {
	fmt.Println("Extension — chaos: replicated DiLOS through a memory-node crash")
	fmt.Printf("  [seed %d; node 1 down %.0f–%.0fms; Replicas: 2]\n",
		ChaosSeed, ExtChaosCrashAt().Seconds()*1e3, ExtChaosCrashUntil().Seconds()*1e3)
	r := ExtChaos(sc, ChaosSeed)
	fmt.Printf("  %d pages over a %.0fms run\n", r.Pages, r.RunFor.Seconds()*1e3)
	if r.RecoveredAt == 0 {
		fmt.Printf("  detected %.3fms after crash; recovery did not complete in the run\n",
			(r.DetectedAt-r.CrashAt).Seconds()*1e3)
	} else {
		fmt.Printf("  detected %.3fms after crash; recovered %.3fms after the node returned\n",
			(r.DetectedAt-r.CrashAt).Seconds()*1e3, (r.RecoveredAt-r.CrashUntil).Seconds()*1e3)
	}
	fmt.Printf("  %-12s %-12s %-12s %-12s\n", "baseline", "outage avg", "outage dip", "recovered")
	fmt.Printf("  %-12.2f %-12.2f %-12.2f %-12.2f  (GB/s touched)\n",
		r.BaselineGBs, r.OutageGBs, r.DipGBs, r.RecoveredGBs)
	fmt.Printf("  injected fails %d, retries %d (timeouts %d, gave up %d)\n",
		r.InjectedFails, r.Retries, r.Timeouts, r.GaveUp)
	fmt.Printf("  replica fetches %d, failed write-backs %d, re-replicated pages %d\n",
		r.ReplicaFetches, r.WriteFails, r.ReReplicated)
	fmt.Printf("  breaker: %d trip(s), %d recovery(ies)\n", r.NodeFails, r.NodeRecoveries)
	fmt.Println("  throughput over time (1ms buckets):")
	fmt.Printf("    %s\n", floatSparkline(r.Series))
}

func runExt6(sc Scale) {
	fmt.Println("Extension — per-fault latency anatomy from the flight recorder (µs)")
	fmt.Println("  [sequential write+read sweep; major faults only; stage means sum to the")
	fmt.Println("   total mean. DiLOS never reclaims on the fault path; Fastswap's direct")
	fmt.Println("   reclamation grows as the cache shrinks]")
	rows := ExtAnatomy(sc)
	stages := []string{"exception", "lookup", "reclaim", "issue", "guide", "wait", "map"}
	lastFrac := -1.0
	for _, r := range rows {
		if r.Fraction != lastFrac {
			lastFrac = r.Fraction
			fmt.Printf("  local memory %s:\n", FracLabel(r.Fraction))
			fmt.Printf("    %-22s %-4s", "system", "")
			for _, st := range stages {
				fmt.Printf(" %9s", st)
			}
			fmt.Printf(" %9s %8s\n", "total", "faults")
		}
		a := r.Anatomy
		fmt.Printf("    %-22s %-4s", r.System, "mean")
		for _, st := range stages {
			fmt.Printf(" %9.2f", float64(a.Stage(st).MeanNs)/1e3)
		}
		fmt.Printf(" %9.2f %8d\n", float64(a.MeanNs)/1e3, a.Faults)
		fmt.Printf("    %-22s %-4s", "", "p99")
		for _, st := range stages {
			fmt.Printf(" %9.2f", float64(a.Stage(st).P99Ns)/1e3)
		}
		fmt.Printf(" %9.2f\n", float64(a.P99Ns)/1e3)
	}
}

func runExt7(sc Scale) {
	fmt.Println("Extension — elastic pool: drain a memory node under load (ext7)")
	fmt.Printf("  [3 nodes, Replicas: 2, 12.5%% local cache; node %d drains at 3ms;\n",
		MigrateDrainNode)
	fmt.Println("   chaos leg crashes the draining node mid-copy (seed -chaos-seed)]")
	r := ExtElastic(sc, ChaosSeed)
	fmt.Printf("  %d pages over a %.0fms run\n", r.Pages, r.RunFor.Seconds()*1e3)
	if r.DrainDoneAt == 0 {
		fmt.Println("  drain did not complete in the run")
	} else {
		fmt.Printf("  drain completed in %.2fms: %d pages moved (%d copy restarts, %d stranded retries, %d forwarded)\n",
			(r.DrainDoneAt-r.DrainAt).Seconds()*1e3, r.PagesMoved, r.CopyRestarts, r.Stranded, r.Forwarded)
	}
	fmt.Printf("  %-10s %12s %12s %10s\n", "phase", "fault p50", "fault p99", "GB/s")
	fmt.Printf("  %-10s %12s %12s %10.2f\n", "baseline", us(r.BaselineP50), us(r.BaselineP99), r.BaselineGBs)
	fmt.Printf("  %-10s %12s %12s %10.2f\n", "drain", us(r.DrainP50), us(r.DrainP99), r.DrainGBs)
	fmt.Printf("  %-10s %12s %12s %10.2f\n", "after", "", us(r.AfterP99), r.AfterGBs)
	fmt.Printf("  drain p99 = %.2fx baseline (target ≤ 2x); corruptions: %d (must be 0)\n",
		r.P99Ratio, r.Corruptions)
	if r.ChaosDrainDoneAt == 0 {
		fmt.Printf("  chaos leg: drain pending at run end (node crashed mid-copy; %d breaker trips)\n",
			r.ChaosNodeFails)
	} else {
		fmt.Printf("  chaos leg: crash mid-copy, drain still done at %.2fms (%d moved, %d stranded retries, %d breaker trips)\n",
			r.ChaosDrainDoneAt.Seconds()*1e3, r.ChaosPagesMoved, r.ChaosStranded, r.ChaosNodeFails)
	}
	fmt.Printf("  chaos leg corruptions: %d (must be 0)\n", r.ChaosCorruptions)
	fmt.Println("  throughput over time (1ms buckets):")
	fmt.Printf("    %s\n", floatSparkline(r.Series))
}

func runExt8(sc Scale) {
	fmt.Println("Extension — multi-tenant pool: noisy neighbour vs QoS quotas (ext8)")
	fmt.Printf("  [victim hot set fits its quota; aggressor streams 8x its quota;\n")
	fmt.Printf("   isolated leg caps the aggressor at %d MB/s of fabric]\n",
		TenantAggressorRate>>20)
	r := ExtTenant(sc)
	fmt.Printf("  victim %d hot + %d cold pages on %d frames; aggressor %d pages on %d frames (+%d slack)\n",
		r.VictimHotPages, r.VictimColdPages, r.VictimFrames,
		r.AggressorPages, r.AggressorFrames, r.SlackFrames)
	fmt.Printf("  %-12s %12s %12s %8s %8s\n", "leg", "victim p50", "victim p99", "faults", "ratio")
	fmt.Printf("  %-12s %12s %12s %8d %8s\n", "solo", us(r.SoloP50), us(r.SoloP99), r.SoloFaults, "1.00")
	fmt.Printf("  %-12s %12s %12s %8d %8.2f\n", "isolated", us(r.IsoP50), us(r.IsoP99), r.IsoFaults, r.IsoRatio)
	fmt.Printf("  %-12s %12s %12s %8d %8.2f\n", "control", us(r.CtrlP50), us(r.CtrlP99), r.CtrlFaults, r.CtrlRatio)
	verdict := func(ok bool) string {
		if ok {
			return "pass"
		}
		return "FAIL"
	}
	fmt.Printf("  gate: isolated <= %.1fx solo: %s; unpartitioned control > gate: %s\n",
		r.Gate, verdict(r.IsoPass), verdict(r.CtrlExceeds))
	fmt.Printf("  aggressor majors: %d capped vs %d uncapped; victim floor %d, reserved %d at end\n",
		r.AggrFaultsIso, r.AggrFaultsCtrl, r.VictimFloor, r.VictimReservedEnd)
	fmt.Printf("  repeat isolated leg byte-identical: %v\n", r.Deterministic)
}

func runExt10(sc Scale) {
	fmt.Println("Extension — per-core fault-path scaling: sharded vs shared manager (ext10)")
	fmt.Println("  [weak scaling: each core random-writes its own partition at 25% local")
	fmt.Println("   cache, re-dirtying a hot window every iteration; shared = one wide lock")
	fmt.Println("   across every daemon sweep and fault transition, sharded = Shards=cores]")
	r := ExtScaling(sc)
	fmt.Printf("  %-6s %14s %12s | %14s %12s\n",
		"cores", "shared flt/s", "shared p99", "sharded flt/s", "sharded p99")
	for _, row := range r.Rows {
		fmt.Printf("  %-6d %14.0f %12v | %14.0f %12v\n",
			row.Cores, row.SharedRate, row.SharedP99, row.ShardedRate, row.ShardedP99)
	}
	fmt.Printf("  1->4 core fault-throughput speedup: shared %.2fx, sharded %.2fx\n",
		r.SharedSpeedup, r.ShardedSpeedup)
}

func runExt11(sc Scale) {
	fmt.Println("Extension — always-on observability plane: overhead + detection (ext11)")
	fmt.Printf("  [tail storm ×30 on 60%% of ops from %.1fms; SLO budget 25µs, target 99%%,\n",
		Ext11TailAt().Seconds()*1e3)
	fmt.Printf("   burn-rate rule 500µs/100µs ×8; detection budget %.0fµs]\n",
		Ext11DetectBudget().Micros())
	r := ExtObs(sc, ChaosSeed)
	fmt.Printf("  seq read 12.5%%: plane off %.2f GB/s, plane on %.2f GB/s (virtual-time delta %+d ns)\n",
		r.OffGBs, r.OnGBs, int64(r.OnElapsed-r.OffElapsed))
	fmt.Printf("  same-seed pages byte-identical: %v (%d bytes rendered, %d journal events, %d spans sampled out)\n",
		r.Deterministic, r.PageBytes, r.JournalEvents, r.SampledOut)
	if r.Detected {
		fmt.Printf("  storm: %d tails injected; alert raised %.0fµs after onset (%d raise edges)\n",
			r.TailsInjected, r.DetectLatency.Micros(), r.StormRaised)
	} else {
		fmt.Println("  storm: alert never fired (FAIL)")
	}
	fmt.Printf("  clean legs raised %d alerts (must be 0)\n", r.CleanAlerts)
}

// floatSparkline renders a plain float series as unicode blocks.
func floatSparkline(vals []float64) string {
	if len(vals) == 0 {
		return "(empty)"
	}
	blocks := []rune(" ▁▂▃▄▅▆▇█")
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return "(idle)"
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		out[i] = blocks[int(v/max*float64(len(blocks)-1))]
	}
	return string(out)
}
