package core

import (
	"errors"
	"fmt"
	"sort"

	"dilos/internal/comm"
	"dilos/internal/fabric"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

// 2 MB huge-page regions. A region mapped with MmapDDCHuge still pages at
// the 4 KiB granularity in the table, but the fault path and the cleaner
// treat it coarser:
//
//   - one demand fault fetches and maps the whole 2 MB region (512 fetches
//     behind per-node doorbells, one map charge), so a workload streaming
//     through a huge region pays one fault per 2 MB instead of 512;
//   - the batched cleaner writes dirty content back a 32 KiB sub-page at a
//     time (HugeSubPages contiguous 4 KiB pages whose offsets coalesce into
//     one vectored write) — the region behaves like 64 sub-page dirty bits,
//     so a few dirtied cache lines never force a 2 MB write-back.
const (
	// HugePages is the region size in 4 KiB pages (512 × 4 KiB = 2 MB).
	HugePages = 512
	// HugeSubPages is the write-back granule in 4 KiB pages (8 × 4 KiB =
	// 32 KiB), giving 64 granules per region.
	HugeSubPages = 8
)

// hugeSpan is one MmapDDCHuge allocation: `regions` back-to-back 2 MB
// regions starting at a region-aligned VPN (alignment within the span, not
// globally — base arithmetic is relative to start).
type hugeSpan struct {
	start   pagetable.VPN
	regions int
}

// ErrHugeGuided is returned by MmapDDCHuge on a system built with an
// eviction guide. Guided paging and huge regions are mutually exclusive:
// the cleaner resolves a page's write-back granule by checking Huge
// membership *before* consulting the guide, so pages in a huge region
// would silently bypass guided eviction — a confusing half-configuration.
// Callers that want both must place them in separate Systems.
var ErrHugeGuided = errors.New("core: MmapDDCHuge on a guided system — huge regions bypass the eviction guide; use MmapDDC or drop WithEvictionGuide")

// MmapDDCHuge maps `regions` 2 MB huge regions of disaggregated memory and
// returns the base address. The pages start Remote exactly like MmapDDC;
// what changes is the policy above. The first call wires the page manager's
// sub-span resolver.
//
// Fails with ErrHugeGuided when an eviction guide is installed (see the
// error's doc for why the combination is rejected rather than resolved).
func (s *System) MmapDDCHuge(regions int) (uint64, error) {
	if regions <= 0 {
		return 0, fmt.Errorf("core: MmapDDCHuge needs at least one region (got %d)", regions)
	}
	if s.Mgr.Guide != nil {
		return 0, ErrHugeGuided
	}
	base, err := s.MmapDDC(uint64(regions) * HugePages)
	if err != nil {
		return 0, err
	}
	start := pagetable.VPNOf(base)
	i := sort.Search(len(s.huge), func(i int) bool { return s.huge[i].start > start })
	s.huge = append(s.huge, hugeSpan{})
	copy(s.huge[i+1:], s.huge[i:])
	s.huge[i] = hugeSpan{start: start, regions: regions}
	if s.Mgr.Huge == nil {
		s.Mgr.Huge = s
	}
	return base, nil
}

// hugeSpanOf finds the span containing v, or ok=false.
func (s *System) hugeSpanOf(v pagetable.VPN) (hugeSpan, bool) {
	i := sort.Search(len(s.huge), func(i int) bool { return s.huge[i].start > v })
	if i == 0 {
		return hugeSpan{}, false
	}
	sp := s.huge[i-1]
	if v-sp.start < pagetable.VPN(sp.regions)*HugePages {
		return sp, true
	}
	return hugeSpan{}, false
}

// hugeBase returns the base VPN of the 2 MB region containing v.
func (s *System) hugeBase(v pagetable.VPN) (pagetable.VPN, bool) {
	sp, ok := s.hugeSpanOf(v)
	if !ok {
		return 0, false
	}
	off := v - sp.start
	return sp.start + (off/HugePages)*HugePages, true
}

// SubSpan implements pagemgr.HugeRegions: the 32 KiB write-back granule
// containing v, for pages inside a huge region.
func (s *System) SubSpan(v pagetable.VPN) (pagetable.VPN, int, bool) {
	sp, ok := s.hugeSpanOf(v)
	if !ok {
		return 0, 0, false
	}
	off := v - sp.start
	return sp.start + (off/HugeSubPages)*HugeSubPages, HugeSubPages, true
}

// hugePend tracks one page of an in-progress huge fault through the map
// phase.
type hugePend struct {
	slot uint64
	gen  uint64
}

// hugeFault tries to satisfy a major fault on a huge-region page by
// fetching and mapping the entire 2 MB region in one shot. Returns false —
// and touches nothing — when the fault should take the ordinary
// single-page path instead: the page is not in a huge region, the pool
// lacks 512 frames of headroom over the low watermark (a huge fault must
// never block on the reclaimer mid-region), chaos is active (per-page
// recovery would need per-page ownership), or the wide-lock ablation is on.
//
// Phase structure mirrors the batched prefetch issue: allocate frames and
// publish Fetching PTEs with no intervening yield, post each node's pages
// through one doorbell (one request per page, so every slot owns exactly
// one op and minor faulters can wait on it), then wait for the last
// completion and map everything under a single Map charge — the TLB-level
// benefit of the huge mapping.
func (s *System) hugeFault(p *sim.Proc, coreID int, vpn pagetable.VPN) bool {
	if len(s.huge) == 0 || s.Chaos != nil || s.wideLocks {
		return false
	}
	base, ok := s.hugeBase(vpn)
	if !ok {
		return false
	}
	if s.Pool.FreeCount() < HugePages+s.Mgr.Cfg.LowWater {
		return false
	}
	t0 := p.Now()
	rec := s.Tel != nil
	var span telemetry.Span
	if rec {
		span.Kind = telemetry.KindMajorFault
		span.Start = t0 - s.MMUC.Exception
		span.Arg = uint64(base)
		span.Stages[telemetry.StageException] = s.MMUC.Exception
	}
	p.Advance(s.Costs.HandlerCheck)

	// Phase 1 — claim: allocate a frame and publish a Fetching PTE for
	// every page of the region still Remote. Nothing here yields (the
	// headroom check above guarantees AllocFrame pops without waiting), so
	// the Fetching-PTE invariant — a published slot gets its op installed
	// before anyone else runs — holds across the whole region.
	type claim struct {
		node int
		off  uint64
		buf  []byte
		slot uint64
	}
	var claims []claim
	for i := 0; i < HugePages; i++ {
		v := base + pagetable.VPN(i)
		old := *s.Table.Entry(v)
		if old.Tag() != pagetable.TagRemote {
			continue // already resident or in flight; leave it to its owner
		}
		node, off, ok := s.remoteOf(v)
		if !ok {
			continue
		}
		frame := s.Mgr.AllocFrame(p)
		s.Pool.Meta(frame).Pinned = true
		p.Advance(s.Costs.FrameAlloc)
		slot := s.newSlot(v, frame)
		s.slots[slot].demand = true
		p.Advance(s.Costs.TagCAS)
		if !s.Table.TryTransition(v, old, pagetable.Fetching(slot)) {
			panic("core: huge Fetching publish lost a race without a yield")
		}
		claims = append(claims, claim{node: node, off: off, buf: s.Pool.Bytes(frame), slot: slot})
	}
	if len(claims) == 0 {
		// The whole region is resident or in flight — the triggering page
		// included, so the retried translation resolves minor/local.
		return true
	}
	s.BD.Handler += p.Now() - t0
	if rec {
		span.Stages[telemetry.StageLookup] = p.Now() - t0
	}

	// Phase 2 — issue: per node in first-appearance order, one doorbell
	// carrying one read request per page.
	tIssue := p.Now()
	var (
		reqs []fabric.Req
		ops  []*fabric.Op
		last *fabric.Op
	)
	pends := make([]hugePend, 0, len(claims))
	done := 0
	for done < len(claims) {
		node := -1
		for _, c := range claims {
			if c.node >= 0 {
				node = c.node
				break
			}
		}
		qp := s.Hubs[node].QP(coreID, comm.ModFault)
		reqs = reqs[:0]
		for i := range claims {
			if c := &claims[i]; c.node == node {
				reqs = append(reqs, fabric.Req{Kind: fabric.OpRead, Segs: []fabric.Seg{{Off: c.off, Buf: c.buf}}})
			}
		}
		for r := range reqs {
			if r == 0 {
				p.Advance(s.Costs.PrefetchIssue)
			} else {
				p.Advance(s.Costs.PrefetchWQE)
			}
		}
		ops = qp.Submit(p.Now(), reqs, ops[:0])
		r := 0
		for i := range claims {
			if c := &claims[i]; c.node == node {
				s.slots[c.slot].op = ops[r]
				if op := ops[r]; op.Err == nil && (last == nil || op.CompleteAt > last.CompleteAt) {
					last = op
				}
				pends = append(pends, hugePend{slot: c.slot, gen: s.slots[c.slot].gen})
				c.node = -1
				done++
				r++
			}
		}
	}

	// Phase 3 — wait and map: one wait on the last completion, one Map
	// charge for the whole region, then install every page charge-free
	// (minor faulters that got there first are skipped by the gen check).
	if last != nil {
		last.Wait(p)
	}
	s.BD.Fetch += p.Now() - tIssue
	tMap := p.Now()
	if rec {
		span.Stages[telemetry.StageWait] = tMap - tIssue
	}
	p.Advance(s.Costs.Map)
	for _, pe := range pends {
		s.mapFetched(p, coreID, pe.slot, pe.gen, false)
	}
	s.BD.Map += p.Now() - tMap
	s.BD.N++
	s.FaultLat.Record(p.Now() - t0 + s.MMUC.Exception)
	if rec {
		span.Stages[telemetry.StageMap] = p.Now() - tMap
		span.End = p.Now()
		s.Tel.Emit(s.telCore[coreID], span)
	}
	return true
}
