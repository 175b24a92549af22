package core

import (
	"encoding/json"
	"testing"

	"dilos/internal/chaos"
	"dilos/internal/fabric"
	"dilos/internal/sim"
)

// chaosCrashSys builds a 2-node fully-replicated system whose node 1
// crashes at 300 µs and returns at 1.2 ms, with the health monitor armed.
func chaosCrashSys(seed uint64) (*System, *sim.Engine) {
	eng := sim.New()
	inj := chaos.NewInjector(chaos.Config{
		Seed: seed,
		Crashes: []chaos.CrashWindow{
			{Node: 1, At: 300 * sim.Microsecond, Until: 1200 * sim.Microsecond},
		},
	})
	sys := New(eng, Config{
		CacheFrames: 32,
		Cores:       2,
		RemoteBytes: 32 << 20,
		Fabric:      fabric.DefaultParams(),
		MemNodes:    2,
		Replicas:    2,
		Chaos:       inj,
	})
	sys.Start()
	return sys, eng
}

func TestChaosCrashFailoverAndRecovery(t *testing.T) {
	// The acceptance scenario: a replicated system rides through a whole-node
	// crash window. Fetches fail over to the survivor, the health monitor
	// trips the breaker and later re-replicates onto the returned node, and
	// no write is ever lost.
	sys, eng := chaosCrashSys(42)
	const pages = 96
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, err := sys.MmapDDC(pages)
		if err != nil {
			t.Error(err)
			return
		}
		val := func(i, pass uint64) uint64 { return i*2654435761 + pass*7919 }
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, val(i, 0))
		}
		// Cycle the working set (3× the cache, so every pass evicts and
		// refetches) until well past the crash window and the recovery.
		pass := uint64(0)
		for sp.Proc().Now() < 12*sim.Millisecond {
			for i := uint64(0); i < pages; i++ {
				if got := sp.LoadU64(base + i*PageSize); got != val(i, pass) {
					t.Errorf("pass %d page %d: got %#x want %#x", pass, i, got, val(i, pass))
					return
				}
				sp.StoreU64(base+i*PageSize, val(i, pass+1))
			}
			pass++
		}
		if pass < 3 {
			t.Errorf("only %d passes completed in 12ms of virtual time", pass)
		}
	})
	eng.Run()

	if sys.Health.NodeFails.N < 1 {
		t.Fatalf("health monitor never tripped: node_fails = %d", sys.Health.NodeFails.N)
	}
	if sys.Health.NodeRecoveries.N < 1 {
		t.Fatalf("node 1 never recovered: node_recoveries = %d", sys.Health.NodeRecoveries.N)
	}
	if sys.ReReplicated.N == 0 {
		t.Fatal("recovery re-replicated no pages")
	}
	if sys.ReplicaFetches.N == 0 {
		t.Fatal("no fetch ever failed over to the surviving replica")
	}
	if sys.Chaos.Crashed.N == 0 {
		t.Fatal("the crash window injected no failures (mis-timed?)")
	}
	if sys.Health.LastRecoverAt[1] <= sys.Health.LastFailAt[1] {
		t.Fatalf("recovery (%v) not after failure (%v)",
			sys.Health.LastRecoverAt[1], sys.Health.LastFailAt[1])
	}
}

func TestChaosFlakyIntegrity(t *testing.T) {
	// Probabilistic op failures, tail amplification, and QP stalls on a
	// single node: the retry/backoff layer absorbs everything and the data
	// survives heavy eviction pressure.
	eng := sim.New()
	inj := chaos.NewInjector(chaos.Config{
		Seed:       7,
		FailProb:   0.02,
		TailProb:   0.05,
		TailFactor: 8,
		StallProb:  0.005,
		StallTime:  50 * sim.Microsecond,
	})
	sys := New(eng, Config{
		CacheFrames: 32,
		Cores:       2,
		RemoteBytes: 32 << 20,
		Fabric:      fabric.DefaultParams(),
		Chaos:       inj,
	})
	sys.Start()
	const pages = 128
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, i^0xabcdef)
		}
		for round := 0; round < 4; round++ {
			for i := uint64(0); i < pages; i++ {
				if got := sp.LoadU64(base + i*PageSize); got != i^0xabcdef {
					t.Errorf("round %d page %d corrupted: %#x", round, i, got)
					return
				}
			}
		}
	})
	eng.Run()
	if sys.Chaos.Fails.N == 0 {
		t.Fatal("flaky profile injected no failures — test exercises nothing")
	}
	if sys.FetchRetries.Retries.N == 0 && sys.Mgr.WriteFails.N == 0 {
		t.Fatal("no failure was ever absorbed by a retry or write-back redo")
	}
}

func TestChaosSameSeedIdenticalSystemRun(t *testing.T) {
	// End-to-end determinism: two full simulations under the same seed —
	// injector, retries, health monitor, recovery and all — finish with
	// byte-identical metric snapshots.
	run := func() []byte {
		sys, eng := chaosCrashSys(1234)
		const pages = 64
		sys.Launch("app", 0, func(sp *DDCProc) {
			base, _ := sys.MmapDDC(pages)
			for i := uint64(0); i < pages; i++ {
				sp.StoreU64(base+i*PageSize, i)
			}
			for sp.Proc().Now() < 6*sim.Millisecond {
				for i := uint64(0); i < pages; i++ {
					sp.LoadU64(base + i*PageSize)
				}
			}
		})
		eng.Run()
		b, err := json.Marshal(sys.Registry().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}

// A demand fetch that fails at issue is re-issued by recoverFetch; that
// re-issue is a retry and lands in FetchRetries like the ones
// ReliableQP.Do makes itself. A one-microsecond crash window on the only
// node fails exactly the first fetch.
func TestDemandFetchReissueCountsRetry(t *testing.T) {
	eng := sim.New()
	inj := chaos.NewInjector(chaos.Config{
		Seed:    1,
		Crashes: []chaos.CrashWindow{{Node: 0, At: 0, Until: sim.Microsecond}},
	})
	sys := New(eng, Config{
		CacheFrames: 32,
		Cores:       1,
		RemoteBytes: 1 << 20,
		Fabric:      fabric.DefaultParams(),
		Chaos:       inj,
	})
	sys.Start()
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(4)
		if got := sp.LoadU64(base); got != 0 {
			t.Errorf("fresh page reads %#x, want 0", got)
		}
	})
	eng.Run()
	if sys.Chaos.Crashed.N != 1 {
		t.Fatalf("crash window refused %d ops, want exactly the first demand fetch", sys.Chaos.Crashed.N)
	}
	if sys.FetchRetries.Retries.N != 1 {
		t.Fatalf("fetch retries = %d, want 1 (the re-issue of the failed demand fetch)", sys.FetchRetries.Retries.N)
	}
}
