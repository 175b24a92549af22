package core

import (
	"strings"
	"testing"

	"dilos/internal/chaos"
	"dilos/internal/fabric"
	"dilos/internal/memnode"
	"dilos/internal/migrate"
	"dilos/internal/pagemgr"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

func TestConfigValidateRules(t *testing.T) {
	valid := Config{CacheFrames: 32, Cores: 1, RemoteBytes: 1 << 20}
	cases := []struct {
		name string
		mut  func(*Config)
		want string // error substring, "" = valid
	}{
		{"baseline", func(c *Config) {}, ""},
		{"no cache", func(c *Config) { c.CacheFrames = 0 }, "CacheFrames"},
		{"no cores", func(c *Config) { c.Cores = 0 }, "Cores"},
		{"no remote", func(c *Config) { c.RemoteBytes = 0 }, "RemoteBytes"},
		{"backings drop remote bytes", func(c *Config) {
			c.Backings = []Backing{memnode.New(1<<20, 1)}
			c.RemoteBytes = 0
		}, ""},
		{"backings with remote bytes", func(c *Config) {
			c.Backings = []Backing{memnode.New(1<<20, 1)}
		}, "meaningless with Backings"},
		{"backings with wrong memnodes", func(c *Config) {
			c.Backings = []Backing{memnode.New(1<<20, 1)}
			c.RemoteBytes = 0
			c.MemNodes = 3
		}, "contradicts"},
		{"backings with matching memnodes", func(c *Config) {
			c.Backings = []Backing{memnode.New(1<<20, 1), memnode.New(1<<20, 2)}
			c.RemoteBytes = 0
			c.MemNodes = 2
		}, ""},
		{"too many replicas", func(c *Config) { c.MemNodes, c.Replicas = 2, 3 }, "Replicas"},
		{"health without chaos", func(c *Config) {
			hc := DefaultHealthConfig()
			c.Health = &hc
		}, "inert"},
		{"health with chaos", func(c *Config) {
			hc := DefaultHealthConfig()
			c.Health = &hc
			c.Chaos = chaos.NewInjector(chaos.Config{Seed: 1})
		}, ""},
		{"sampling without recorder", func(c *Config) { c.SampleEvery = sim.Millisecond }, "SampleEvery"},
		{"sampling with recorder", func(c *Config) {
			c.Tel = telemetry.NewRecorder(64)
			c.SampleEvery = sim.Millisecond
		}, ""},
		{"bad migrate tuning", func(c *Config) {
			c.Migrate = &migrate.Tuning{Watermark: -1}
		}, "Watermark"},
		{"watermark above one", func(c *Config) {
			c.Migrate = &migrate.Tuning{Watermark: 1.5}
		}, "Watermark"},
		{"negative replicas", func(c *Config) { c.Replicas = -1 }, "negative"},
		{"zero replicas defaults to one", func(c *Config) { c.Replicas = 0 }, ""},
		{"tenancy slack too large", func(c *Config) {
			c.Tenancy = &TenancyConfig{SlackFrames: 32}
		}, "SlackFrames"},
		{"tenancy negative slack", func(c *Config) {
			c.Tenancy = &TenancyConfig{SlackFrames: -1}
		}, "SlackFrames"},
		{"tenancy rebalance without step", func(c *Config) {
			c.Tenancy = &TenancyConfig{RebalanceEvery: sim.Millisecond}
		}, "RebalanceStep"},
		{"tenancy negative rebalance period", func(c *Config) {
			c.Tenancy = &TenancyConfig{RebalanceEvery: -sim.Millisecond}
		}, "RebalanceEvery"},
		{"tenancy with wide locks", func(c *Config) {
			c.Tenancy = &TenancyConfig{}
			c.WideLocks = true
		}, "WideLocks"},
		{"tenancy valid", func(c *Config) {
			c.Tenancy = &TenancyConfig{SlackFrames: 8, RebalanceEvery: sim.Millisecond, RebalanceStep: 4}
		}, ""},
	}
	for _, tc := range cases {
		cfg := valid
		tc.mut(&cfg)
		err := cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestNewPanicsWithValidateError(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted an invalid config")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "RemoteBytes") {
			t.Fatalf("panic %v does not carry the validation error", r)
		}
	}()
	New(sim.New(), Config{CacheFrames: 32, Cores: 1})
}

func TestNewSystemOptions(t *testing.T) {
	// The functional-options constructor converges on the same normalized
	// config as New: a tiny system assembles, runs a workload, and carries
	// the migration engine the option installed.
	eng := sim.New()
	sys, err := NewSystem(eng,
		WithCacheFrames(32),
		WithCores(2),
		WithRemoteBytes(8<<20),
		WithFabric(fabric.DefaultParams()),
		WithMemNodes(2),
		WithReplicas(2),
		WithMigration(migrate.Tuning{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Mig == nil {
		t.Fatal("WithMigration did not arm the engine")
	}
	sys.Start()
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, err := sys.MmapDDC(64)
		if err != nil {
			t.Error(err)
			return
		}
		for i := uint64(0); i < 64; i++ {
			sp.StoreU64(base+i*PageSize, i)
		}
		for i := uint64(0); i < 64; i++ {
			if got := sp.LoadU64(base + i*PageSize); got != i {
				t.Errorf("page %d: %d", i, got)
				return
			}
		}
	})
	eng.Run()
	if sys.MajorFaults.N == 0 {
		t.Fatal("workload drove no faults")
	}
}

func TestNewSystemReturnsValidationError(t *testing.T) {
	_, err := NewSystem(sim.New(), WithCacheFrames(32))
	if err == nil || !strings.Contains(err.Error(), "Cores") {
		t.Fatalf("error %v, want Cores requirement", err)
	}
}

func TestConfigNormalizedShards(t *testing.T) {
	// One page-manager configuration: Shards defaults to one per core (one
	// under Tenancy, whose views each keep a single list), and Tenancy
	// with more than one shard is an error, never a panic.
	base := Config{CacheFrames: 64, Cores: 3, RemoteBytes: 1 << 20}
	cases := []struct {
		name   string
		mut    func(*Config)
		shards int    // resolved shard count when valid
		want   string // error substring, "" = valid
	}{
		{"unset defaults to cores", func(c *Config) {}, 3, ""},
		{"explicit count kept", func(c *Config) { c.Shards = 2 }, 2, ""},
		{"tenancy defaults to one", func(c *Config) { c.Tenancy = &TenancyConfig{} }, 1, ""},
		{"tenancy with one shard", func(c *Config) {
			c.Tenancy = &TenancyConfig{}
			c.Shards = 1
		}, 1, ""},
		{"tenancy with two shards", func(c *Config) {
			c.Tenancy = &TenancyConfig{}
			c.Shards = 2
		}, 0, "Tenancy"},
		{"negative", func(c *Config) { c.Shards = -1 }, 0, "negative"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		n, err := cfg.normalized()
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
			}
			sys, err := NewSystem(sim.New(), WithConfig(cfg))
			if sys != nil || err == nil {
				t.Errorf("%s: NewSystem accepted the config", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if n.Shards != tc.shards {
			t.Errorf("%s: Shards = %d, want %d", tc.name, n.Shards, tc.shards)
		}
		if got := New(sim.New(), cfg).Pool.Shards(); got != tc.shards {
			t.Errorf("%s: manager sweeps %d shards, want %d", tc.name, got, tc.shards)
		}
	}
}

func TestDeprecatedBatchFalseStillRingsDoorbells(t *testing.T) {
	// Config.Batch is ignored: a system that asks for per-op submission
	// still writes back through doorbell batches on its first cleaner
	// sweep. The pool sits far above the high watermark, so the reclaimer
	// never cleans on its own and every doorbell is the cleaner's.
	mcfg := pagemgr.DefaultConfig(256)
	mcfg.CleanerPeriod = 100 * sim.Microsecond
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: 256,
		Cores:       1,
		RemoteBytes: 1 << 20,
		Fabric:      fabric.DefaultParams(),
		Mgr:         &mcfg,
		Batch:       false,
	})
	sys.Start()
	const pages = 8
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, i)
		}
		if now := sp.Proc().Now(); now >= mcfg.CleanerPeriod {
			t.Fatalf("stores finished at %v, after the first sweep", now)
		}
		// Between the first sweep (one period in) and the second.
		sp.Proc().Sleep(3*mcfg.CleanerPeriod/2 - sp.Proc().Now())
		if n := sys.Link.Batches.N; n != 1 {
			t.Errorf("first cleaner sweep rang %d doorbells, want 1", n)
		}
		if n := sys.Mgr.Cleaned.N; n != pages {
			t.Errorf("first cleaner sweep cleaned %d pages, want %d", n, pages)
		}
	})
	eng.Run()
}
