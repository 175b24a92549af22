package core

import (
	"fmt"

	"dilos/internal/chaos"
	"dilos/internal/fabric"
	"dilos/internal/migrate"
	"dilos/internal/pagemgr"
	"dilos/internal/placement"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
	"dilos/internal/trace"
)

// Validate reports whether the config assembles a working system. It
// surfaces the precedence rules New historically resolved silently:
//
//   - CacheFrames and Cores are always required.
//   - With Backings, the backings size the pool: RemoteBytes must be 0
//     and MemNodes must be 0 or exactly len(Backings).
//   - Without Backings, RemoteBytes is required (MemNodes defaults to 1).
//   - Replicas (default 1) must not exceed the memory node count.
//   - Health tuning without Chaos is rejected — ops cannot fail, so the
//     monitor would only burn probe bandwidth.
//   - SampleEvery without Tel is rejected — there is nowhere to sample to.
//   - Migrate tuning must pass migrate.Tuning.Validate.
//   - Shards (default Cores, or 1 under Tenancy) must not be negative,
//     and Tenancy takes at most one shard and no WideLocks (tenant
//     managers never take the wide lock).
func (c Config) Validate() error {
	_, err := c.normalized()
	return err
}

// normalized applies defaults and enforces the Validate rules, returning
// the resolved config build consumes.
func (c Config) normalized() (Config, error) {
	if c.CacheFrames <= 0 {
		return c, fmt.Errorf("core: CacheFrames is required (got %d)", c.CacheFrames)
	}
	if c.Cores <= 0 {
		return c, fmt.Errorf("core: Cores is required (got %d)", c.Cores)
	}
	if len(c.Backings) > 0 {
		if c.RemoteBytes != 0 {
			return c, fmt.Errorf("core: RemoteBytes (%d) is meaningless with Backings — the backings size themselves; set it to 0", c.RemoteBytes)
		}
		if c.MemNodes != 0 && c.MemNodes != len(c.Backings) {
			return c, fmt.Errorf("core: MemNodes (%d) contradicts len(Backings) (%d); leave MemNodes 0 to derive it", c.MemNodes, len(c.Backings))
		}
		c.MemNodes = len(c.Backings)
	} else {
		if c.RemoteBytes == 0 {
			return c, fmt.Errorf("core: RemoteBytes is required without Backings")
		}
		if c.MemNodes <= 0 {
			c.MemNodes = 1
		}
	}
	if c.Replicas < 0 {
		return c, fmt.Errorf("core: Replicas (%d) is negative; use 0 for the single-copy default", c.Replicas)
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Replicas > c.MemNodes {
		return c, fmt.Errorf("core: Replicas (%d) exceeds the memory node count (%d)", c.Replicas, c.MemNodes)
	}
	if c.Health != nil && c.Chaos == nil {
		return c, fmt.Errorf("core: Health tuning without Chaos is inert — ops cannot fail; set Chaos or drop Health")
	}
	if c.SampleEvery > 0 && c.Tel == nil {
		return c, fmt.Errorf("core: SampleEvery (%v) without Tel has nowhere to sample to; set Tel or drop SampleEvery", c.SampleEvery)
	}
	if c.Migrate != nil {
		if err := c.Migrate.Validate(); err != nil {
			return c, fmt.Errorf("core: %w", err)
		}
	}
	if c.Tenancy != nil {
		t := c.Tenancy
		if t.SlackFrames < 0 || t.SlackFrames >= c.CacheFrames {
			return c, fmt.Errorf("core: Tenancy.SlackFrames (%d) must be in [0,CacheFrames)", t.SlackFrames)
		}
		if t.RebalanceEvery < 0 {
			return c, fmt.Errorf("core: Tenancy.RebalanceEvery (%v) is negative", t.RebalanceEvery)
		}
		if t.RebalanceEvery > 0 && t.RebalanceStep <= 0 {
			return c, fmt.Errorf("core: Tenancy.RebalanceEvery without a positive RebalanceStep moves nothing")
		}
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("core: Shards (%d) is negative; use 0 for one shard per core", c.Shards)
	}
	if c.Shards > 1 && c.Tenancy != nil {
		return c, fmt.Errorf("core: Shards (%d) and Tenancy partition frames along different axes and do not compose; leave Shards 0", c.Shards)
	}
	if c.WideLocks && c.Tenancy != nil {
		return c, fmt.Errorf("core: WideLocks is an ablation of the single-owner manager; tenant managers never take the wide lock")
	}
	if c.Shards == 0 {
		c.Shards = c.Cores
		if c.Tenancy != nil {
			c.Shards = 1
		}
	}
	return c, nil
}

// Option mutates the Config NewSystem assembles.
type Option func(*Config)

// NewSystem assembles a DiLOS node from functional options, returning
// the validation error New would panic with. New(eng, cfg) and
// NewSystem(eng, opts...) converge on the same normalized config.
func NewSystem(eng *sim.Engine, opts ...Option) (*System, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	n, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	return build(eng, n), nil
}

// WithConfig seeds the option chain from a full Config literal; later
// options override its fields.
func WithConfig(c Config) Option { return func(dst *Config) { *dst = c } }

// WithCacheFrames sets the local DRAM cache size in 4 KiB frames.
func WithCacheFrames(frames int) Option { return func(c *Config) { c.CacheFrames = frames } }

// WithCores sets the CPU core count.
func WithCores(n int) Option { return func(c *Config) { c.Cores = n } }

// WithRemoteBytes sizes each in-process memory node's registered region.
func WithRemoteBytes(b uint64) Option { return func(c *Config) { c.RemoteBytes = b } }

// WithFabric selects the network calibration.
func WithFabric(p fabric.Params) Option { return func(c *Config) { c.Fabric = p } }

// WithPrefetcher installs the prefetch policy.
func WithPrefetcher(pf prefetch.Prefetcher) Option { return func(c *Config) { c.Prefetcher = pf } }

// WithEvictionGuide enables guided paging on the page manager.
func WithEvictionGuide(g pagemgr.EvictionGuide) Option {
	return func(c *Config) { c.EvictionGuide = g }
}

// WithManager overrides the page-manager tuning.
func WithManager(m pagemgr.Config) Option { return func(c *Config) { c.Mgr = &m } }

// WithSharedQP collapses per-module queues into one shared queue (the
// head-of-line ablation).
func WithSharedQP() Option { return func(c *Config) { c.SharedQP = true } }

// WithMemNodes shards the remote backing across n memory nodes.
func WithMemNodes(n int) Option { return func(c *Config) { c.MemNodes = n } }

// WithPlacement selects the page→node layout policy.
func WithPlacement(p placement.Policy) Option { return func(c *Config) { c.Placement = p } }

// WithBackings supplies externally owned memory-node backings (one shard
// per entry); RemoteBytes and MemNodes must then stay unset.
func WithBackings(bs ...Backing) Option { return func(c *Config) { c.Backings = bs } }

// WithReplicas keeps n copies of every page across distinct nodes.
func WithReplicas(n int) Option { return func(c *Config) { c.Replicas = n } }

// WithTrace records every fault into the ring for offline analysis.
func WithTrace(r *trace.Recorder) Option { return func(c *Config) { c.Trace = r } }

// WithTelemetry attaches the flight recorder; a positive sampleEvery
// also starts the periodic gauge sampler.
func WithTelemetry(r *telemetry.Recorder, sampleEvery sim.Time) Option {
	return func(c *Config) { c.Tel, c.SampleEvery = r, sampleEvery }
}

// WithChaos injects deterministic faults into every link and enables the
// failure-handling stack.
func WithChaos(inj *chaos.Injector) Option { return func(c *Config) { c.Chaos = inj } }

// WithHealth overrides the health monitor tuning (requires WithChaos).
func WithHealth(hc HealthConfig) Option { return func(c *Config) { c.Health = &hc } }

// WithMigration starts the elastic-pool migration engine with the given
// tuning (zero values → defaults), enabling Drain, AddMemNode
// rebalancing, and watermark auto-rebalance.
func WithMigration(t migrate.Tuning) Option { return func(c *Config) { c.Migrate = &t } }

// WithTenancy enables multi-tenant mode: admit tenants with
// System.NewTenant before Start.
func WithTenancy(t TenancyConfig) Option { return func(c *Config) { c.Tenancy = &t } }

// WithShards sets the number of per-core paging shards (shared-nothing
// LRU lists, per-shard cleaner/reclaimer pairs). The default is Cores.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithWideLocks enables the coarse shared-lock baseline over the sharded
// machinery — ext10's ablation arm.
func WithWideLocks() Option { return func(c *Config) { c.WideLocks = true } }
