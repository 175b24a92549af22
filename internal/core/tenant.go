// Multi-tenant sharing: several tenant address spaces over one physical
// frame pool and one fabric, with QoS isolation.
//
// The host System owns the shared substrate — the DRAM arena, the fabric
// links and memory nodes, the chaos injector, the health monitor, and the
// migration engine. NewTenant carves a per-tenant System out of it: its own
// page table, placement address space, prefetcher state, fault-path
// instrumentation, and a pagemgr.Manager over a dram.View (the tenant's
// hard frame reservation plus a borrowable slack pool). The cleaner and
// reclaimer daemons are shared — one pagemgr.Service sweeps every tenant's
// own LRU/dirty state in admission order — and every tenant issues fabric
// ops through its own comm.Hubs so a token bucket (tenant.Bucket) can gate
// all of its traffic at QP.Submit.
//
// Once tenants are admitted, run workloads through them (Tenant.Launch),
// not through the host System: the host's manager is deliberately left off
// the shared service, and a host workload would allocate frames the
// planner promised to tenants.
package core

import (
	"fmt"

	"dilos/internal/chaos"
	"dilos/internal/comm"
	"dilos/internal/dram"
	"dilos/internal/obs"
	"dilos/internal/pagemgr"
	"dilos/internal/pagetable"
	"dilos/internal/placement"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/tenant"
)

// TenancyConfig enables multi-tenant mode on a host System.
type TenancyConfig struct {
	// SlackFrames is the borrowable remainder of the cache: frames no
	// tenant reserves, allocatable by any tenant beyond its quota on a
	// first-come basis. Must be < CacheFrames; the rest is partitioned by
	// tenant.Plan over the admitted quotas.
	SlackFrames int
	// RebalanceEvery, when positive, runs the pressure-driven quota
	// rebalancer at this period: tenants whose fault path waited for a
	// free frame gain reservation from pressure-free tenants' headroom.
	RebalanceEvery sim.Time
	// RebalanceStep caps how many frames move into one tenant per tick.
	RebalanceStep int
	// NoIsolation is the ablation control: tenants still get their own
	// page tables and managers, but every view spans the whole pool
	// (greedy contention), no slack accounting, and no fabric token
	// buckets — the unpartitioned behaviour ext8 measures against.
	NoIsolation bool
}

// TenantSpec describes one tenant at admission.
type TenantSpec struct {
	// Name must be unique and non-empty; it prefixes the tenant's metric
	// names ("tenant.<name>.") and daemon names.
	Name string
	// Quota is the tenant's frame and fabric entitlement.
	Quota tenant.Quota
	// Prefetcher is the tenant's own prefetch policy (nil → prefetch.None).
	Prefetcher prefetch.Prefetcher
}

// Tenant is one admitted tenant: a full per-tenant System sharing the
// host's substrate. Run workloads with Launch/MmapDDC (or directly on Sys);
// per-tenant metrics live in the host registry under "tenant.<name>.".
type Tenant struct {
	Name  string
	Quota tenant.Quota
	// Sys is the tenant's own System view: private page table, placement
	// space, prefetcher, and page manager over the tenant's dram.View.
	Sys *System

	view   *dram.View
	bucket *tenant.Bucket
	// lastPressure is the cumulative pressure level (alloc waits +
	// evictions) at the previous rebalance tick.
	lastPressure int64
}

// Launch runs fn as one of the tenant's workload threads on the given core.
func (t *Tenant) Launch(name string, coreID int, fn func(sp *DDCProc)) {
	t.Sys.Launch(name, coreID, fn)
}

// MmapDDC maps a disaggregated region in the tenant's own address space.
func (t *Tenant) MmapDDC(pages uint64) (uint64, error) { return t.Sys.MmapDDC(pages) }

// View exposes the tenant's frame partition (tests and the rebalancer).
func (t *Tenant) View() *dram.View { return t.view }

// NewTenant admits a tenant before Start: it re-plans every admitted
// tenant's reservation over the partitionable frames (capacity minus
// slack), assembles the tenant's System over the shared substrate, attaches
// its manager to the shared cleaner/reclaimer service, and registers its
// "tenant.<name>."-prefixed metrics in the host registry. Admission is
// deliberately pre-Start only: quotas re-plan cleanly while every view is
// empty, and the tenant's daemons spawn in a deterministic order.
func (s *System) NewTenant(spec TenantSpec) (*Tenant, error) {
	if s.host != nil {
		return nil, fmt.Errorf("core: NewTenant on a tenant system; admit through the host")
	}
	if s.tenancy == nil {
		return nil, fmt.Errorf("core: NewTenant requires Config.Tenancy (WithTenancy)")
	}
	if s.started {
		return nil, fmt.Errorf("core: NewTenant after Start; admit tenants first")
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("core: tenant needs a name")
	}
	for _, t := range s.tenants {
		if t.Name == spec.Name {
			return nil, fmt.Errorf("core: duplicate tenant %q", spec.Name)
		}
	}
	if err := spec.Quota.Validate(); err != nil {
		return nil, err
	}
	for i := range s.Links {
		if st := s.space.State(i); st != placement.Live {
			return nil, fmt.Errorf("core: node %d is %s; admit tenants with every node live", i, st)
		}
	}

	var view *dram.View
	if s.tenancy.NoIsolation {
		// Control mode: every tenant sees the whole pool and contends
		// greedily — first touch wins, no floors, no borrowing ledger.
		view = dram.NewView(s.arena, s.arena.Capacity(), 0, nil)
	} else {
		quotas := make([]tenant.Quota, 0, len(s.tenants)+1)
		for _, t := range s.tenants {
			quotas = append(quotas, t.Quota)
		}
		quotas = append(quotas, spec.Quota)
		partitionable := s.arena.Capacity() - s.slack.Total()
		plan, err := tenant.Plan(partitionable, quotas)
		if err != nil {
			return nil, err
		}
		// Apply the new plan to the sitting tenants first (all views are
		// empty pre-Start, so SetReserved applies exactly), then carve the
		// newcomer's view.
		for i, t := range s.tenants {
			applied := t.view.SetReserved(plan[i])
			mc := pagemgr.DefaultConfig(applied)
			t.Sys.Mgr.SetWatermarks(mc.LowWater, mc.HighWater)
		}
		view = dram.NewView(s.arena, plan[len(plan)-1], spec.Quota.FloorFrames, s.slack)
	}

	pfx := "tenant." + spec.Name + "."
	tbl := pagetable.New()
	mcfg := pagemgr.DefaultConfig(view.Capacity())
	mcfg.TagCAS = s.Mgr.Cfg.TagCAS
	mgr := pagemgr.New(view, tbl, mcfg)
	mgr.PrefixStats(pfx)

	var bucket *tenant.Bucket
	if !s.tenancy.NoIsolation && spec.Quota.FabricBytesPerSec > 0 {
		bucket = tenant.NewBucket(spec.Quota.FabricBytesPerSec, spec.Quota.FabricBurstBytes)
		// The shared cleaner/reclaimer skip this tenant while its bucket is
		// backlogged, so a capped tenant's write-back queue never head-of-
		// line blocks the daemons for its neighbours.
		mgr.Throttled = bucket.Backlogged
	}
	hubs := make([]*comm.Hub, len(s.Links))
	for i, l := range s.Links {
		if s.sharedQP {
			hubs[i] = comm.NewSharedHub(l, s.cores, s.backings[i].Key())
		} else {
			hubs[i] = comm.NewHub(l, s.cores, s.backings[i].Key())
		}
		if bucket != nil {
			hubs[i].SetLimiter(bucket)
		}
	}

	pf := spec.Prefetcher
	if pf == nil {
		pf = prefetch.None{}
	}
	ts := &System{
		Eng:      s.Eng,
		Node:     s.Node,
		Link:     s.Link,
		Nodes:    s.Nodes,
		backings: s.backings,
		Links:    s.Links,
		Hubs:     hubs,
		Table:    tbl,
		Pool:     view,
		arena:    s.arena,
		Mgr:      mgr,
		Hub:      hubs[0],
		Costs:    s.Costs,
		MMUC:     s.MMUC,
		Pf:       pf,
		Track:    prefetch.NewHitTracker(),
		Hist:     prefetch.NewHistory(32),
		space: placement.New(placement.Config{
			Nodes:    len(s.Links),
			Replicas: s.replicas,
			Policy:   s.policy,
		}),
		Chaos:       s.Chaos,
		remoteBytes: s.remoteBytes,
		fabricP:     s.fabricP,
		cores:       s.cores,
		sharedQP:    s.sharedQP,
		host:        s,
		pfQueue:     make([][]pfItem, s.cores),
		pfHeld:      make([]pfHeldItem, s.cores),
		pfWaiter:    make([]sim.Waiter, s.cores),
		pfScratch:   make([]pfScratch, s.cores),
		started:     true, // never Start()ed itself; the host drives it
	}
	initMetrics(ts, pfx)
	ts.sloID = -1
	if s.Obs != nil {
		// The tenant aliases the host's plane (events land in one journal)
		// and registers its own fault-latency objective, so burn rates and
		// alerts attribute per tenant.
		ts.Obs = s.Obs
		if s.Obs.Monitor != nil {
			o := s.Obs.Objective
			o.Name = "tenant." + spec.Name
			ts.sloMon = s.Obs.Monitor
			ts.sloID = s.Obs.Monitor.Register(o)
		}
	}
	if s.Tel != nil {
		ts.Tel = s.Tel
		ts.telCore = make([]int, s.cores)
		ts.telPf = make([]int, s.cores)
		for c := 0; c < s.cores; c++ {
			ts.telCore[c] = s.Tel.Track(fmt.Sprintf("%sfault/core%d", pfx, c))
		}
		for c := 0; c < s.cores; c++ {
			ts.telPf[c] = s.Tel.Track(fmt.Sprintf("%spfmap%d", pfx, c))
		}
		mgr.Tel = s.Tel
		mgr.CleanTracks = []int{s.Tel.Track(pfx + "cleaner")}
		mgr.ReclaimTracks = []int{s.Tel.Track(pfx + "reclaimer")}
	}
	// Per-tenant retry jitter stream: derived from the host's seed material
	// plus the admission index so tenants never share a sequence.
	retrySeed := uint64(0xd1705) ^ uint64(len(s.tenants)+1)*0x9e3779b97f4a7c15
	if s.Chaos != nil {
		retrySeed ^= s.Chaos.Config().Seed
	}
	ts.retryRng = chaos.NewRand(retrySeed)
	mgr.RemoteOf = func(v pagetable.VPN) (pagemgr.Target, bool) {
		var sbuf [placement.MaxInlineReplicas]placement.Slot
		slots, ok := ts.space.AppendWriteSlots(sbuf[:0], v)
		if !ok || len(slots) == 0 {
			return pagemgr.Target{}, false
		}
		tgt := pagemgr.Target{
			Off:       slots[0].Off,
			CleanQP:   ts.Hubs[slots[0].Node].QP(0, comm.ModCleaner),
			ReclaimQP: ts.Hubs[slots[0].Node].QP(0, comm.ModReclaim),
		}
		for _, sl := range slots[1:] {
			tgt.Replicas = append(tgt.Replicas, pagemgr.Target{
				Off:       sl.Off,
				CleanQP:   ts.Hubs[sl.Node].QP(0, comm.ModCleaner),
				ReclaimQP: ts.Hubs[sl.Node].QP(0, comm.ModReclaim),
			})
		}
		return tgt, true
	}
	ts.registry = ts.buildRegistry()
	s.registry.Merge(ts.registry)

	if s.svc == nil {
		s.svc = pagemgr.NewService()
	}
	s.svc.Attach(mgr)
	if s.Mig != nil {
		s.Mig.AttachSpace(ts.space, ts.localContent)
	}
	for c := 0; c < s.cores; c++ {
		c := c
		s.Eng.GoDaemon(fmt.Sprintf("%spfmap%d", pfx, c), func(p *sim.Proc) { ts.pfMapLoop(p, c) })
	}

	t := &Tenant{Name: spec.Name, Quota: spec.Quota, Sys: ts, view: view, bucket: bucket}
	s.tenants = append(s.tenants, t)
	return t, nil
}

// Tenants returns the admitted tenants in admission order.
func (s *System) Tenants() []*Tenant { return s.tenants }

// setNodeState drives the host placement state machine and mirrors the
// transition onto every tenant address space — tenants track node
// membership and health in lockstep with the host (migration-driven
// Draining/Removed transitions are mirrored by the migration engine's
// attached spaces instead).
func (s *System) setNodeState(node int, st placement.State) error {
	if err := s.space.SetState(node, st); err != nil {
		return err
	}
	s.emitEvent(s.Eng.Now(), "node_state",
		obs.I("node", int64(node)), obs.S("state", st.String()))
	for _, t := range s.tenants {
		if err := t.Sys.space.SetState(node, st); err != nil {
			panic(fmt.Sprintf("core: tenant %s space desynced on node %d → %s: %v", t.Name, node, st, err))
		}
	}
	return nil
}

// rebalanceLoop is the admission/rebalance daemon: every RebalanceEvery it
// reads each tenant's pressure — allocation waits plus reclaimer evictions
// since the last tick (eager eviction means a thrashing tenant almost
// never blocks, so eviction churn is the leading signal) — and shifts up
// to RebalanceStep frames of reservation from pressure-free tenants'
// headroom toward each pressured tenant, retuning the shrunk and grown
// managers' watermarks so their reclaimers converge on the new quotas.
func (s *System) rebalanceLoop(p *sim.Proc) {
	sig := make([]tenant.Signal, len(s.tenants))
	for {
		p.Sleep(s.tenancy.RebalanceEvery)
		for i, t := range s.tenants {
			level := t.Sys.Mgr.AllocWaits.N + t.Sys.Mgr.Evicted.N
			sig[i] = tenant.Signal{
				Reserved: t.view.Reserved(),
				Floor:    t.Quota.FloorFrames,
				Used:     t.view.Used(),
				Pressure: level - t.lastPressure,
			}
			t.lastPressure = level
		}
		next := tenant.Rebalance(sig, s.tenancy.RebalanceStep)
		for i, t := range s.tenants {
			if next[i] == sig[i].Reserved {
				continue
			}
			applied := t.view.SetReserved(next[i])
			mc := pagemgr.DefaultConfig(applied)
			t.Sys.Mgr.SetWatermarks(mc.LowWater, mc.HighWater)
			s.emitEvent(p.Now(), "tenant_rebalance",
				obs.S("tenant", t.Name),
				obs.I("from_frames", int64(sig[i].Reserved)),
				obs.I("to_frames", int64(applied)),
				obs.I("pressure", sig[i].Pressure))
		}
	}
}
