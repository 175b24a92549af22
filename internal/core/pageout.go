// Application-directed page-out: PageOutRange lets a workload (the
// KV-cache tier, a guide, an allocator) push a cold virtual range back to
// the memory nodes ahead of the reclaimer. It is the eviction mirror of
// SchedulePrefetch — same phase discipline as the batched cleaner: snapshot
// and pin with no intervening yield, flush dirty content per queue pair
// through single doorbells, wait once on the overall last completion, then
// evict whatever stayed clean through the wait.
package core

import (
	"dilos/internal/comm"
	"dilos/internal/dram"
	"dilos/internal/fabric"
	"dilos/internal/pagetable"
	"dilos/internal/placement"
	"dilos/internal/sim"
)

// poItem is one resident page of the range moving through a PageOutRange
// call.
type poItem struct {
	vpn    pagetable.VPN
	frame  dram.FrameID
	dirty  bool
	failed bool // a replica write failed at issue; stays resident and dirty
}

// PageOutRange writes back and evicts every resident, unpinned page in
// [addr, addr+bytes), returning how many pages actually left DRAM. Pages
// that are already remote, in flight, pinned, or re-dirtied during the
// write-back wait are skipped — the call is best-effort by design, since
// the application is only advising that the range is cold. Dirty content
// is written to every replica before the PTE transitions, so the call
// never loses writes; a page whose write-back fails at issue keeps its
// dirty bit and stays resident for the cleaner to retry.
func (s *System) PageOutRange(p *sim.Proc, coreID int, addr uint64, bytes uint64) int {
	if bytes == 0 {
		return 0
	}
	first := pagetable.VPNOf(addr)
	last := pagetable.VPNOf(addr + bytes - 1)

	// Phase 1 — snapshot and pin. No yield from here through issue, so the
	// PTE and frame states observed now hold until the post-issue wait, and
	// pinning keeps the cleaner and reclaimer off the frames meanwhile.
	var items []poItem
	for v := first; v <= last; v++ {
		pte := s.Table.Lookup(v)
		if pte.Tag() != pagetable.TagLocal {
			continue
		}
		id := dram.FrameID(pte.Frame())
		f := s.Pool.Meta(id)
		if f.Pinned || f.VPN != v {
			continue
		}
		f.Pinned = true
		items = append(items, poItem{vpn: v, frame: id, dirty: pte.Dirty()})
	}
	if len(items) == 0 {
		return 0
	}

	// Phase 2 — flush: post every dirty page to every replica slot, one
	// doorbell per distinct queue pair, contiguous offsets coalesced into
	// vectored writes (the write-back path's wire shape). Failure is known
	// at issue time, so failed requests mark their pages immediately.
	var (
		qps    []*fabric.QP
		segs   []fabric.Seg
		own    []int
		reqs   []fabric.Req
		ops    []*fabric.Op
		lastOp *fabric.Op
	)
	slotsOf := make([][]int, len(items)) // parallel: QP index per replica
	offsOf := make([][]uint64, len(items))
	var sbuf [placement.MaxInlineReplicas]placement.Slot
	for i := range items {
		it := &items[i]
		if !it.dirty {
			continue
		}
		slots, ok := s.space.AppendWriteSlots(sbuf[:0], it.vpn)
		if !ok || len(slots) == 0 {
			it.failed = true
			continue
		}
		for _, sl := range slots {
			qp := s.Hubs[sl.Node].QP(coreID, comm.ModCleaner)
			qi := -1
			for k, q := range qps {
				if q == qp {
					qi = k
					break
				}
			}
			if qi < 0 {
				qi = len(qps)
				qps = append(qps, qp)
			}
			slotsOf[i] = append(slotsOf[i], qi)
			offsOf[i] = append(offsOf[i], sl.Off)
		}
	}
	for qi, qp := range qps {
		segs, own = segs[:0], own[:0]
		for i := range items {
			it := &items[i]
			if !it.dirty || it.failed {
				continue
			}
			for k, q := range slotsOf[i] {
				if q != qi {
					continue
				}
				segs = append(segs, fabric.Seg{Off: offsOf[i][k], Buf: s.Pool.Bytes(it.frame)})
				own = append(own, i)
			}
		}
		if len(segs) == 0 {
			continue
		}
		reqs = qp.Coalesce(fabric.OpWrite, segs, reqs[:0])
		for r := range reqs {
			if r == 0 {
				p.Advance(s.Costs.PrefetchIssue)
			} else {
				p.Advance(s.Costs.PrefetchWQE)
			}
		}
		ops = qp.Submit(p.Now(), reqs, ops[:0])
		idx := 0
		for r, req := range reqs {
			op := ops[r]
			if op.Err != nil {
				for k := 0; k < len(req.Segs); k++ {
					items[own[idx+k]].failed = true
				}
			} else if lastOp == nil || op.CompleteAt > lastOp.CompleteAt {
				lastOp = op
			}
			idx += len(req.Segs)
		}
	}

	// Still pre-yield: clear the dirty bits of pages whose every replica
	// write was issued cleanly. The fabric snapshots data at issue time, so
	// a write that lands on the page after this point re-sets the bit and
	// phase 3 leaves the page resident — no write is ever dropped.
	cleared := 0
	for i := range items {
		it := &items[i]
		if !it.dirty || it.failed {
			continue
		}
		pte := s.Table.Lookup(it.vpn)
		p.Advance(s.Mgr.Cfg.TagCAS)
		s.Table.Set(it.vpn, pte&^pagetable.BitDirty)
		cleared++
	}
	if cleared > 0 {
		s.Table.BumpGen()
	}
	if lastOp != nil {
		lastOp.Wait(p)
	}

	// Phase 3 — evict (no further yields): unpin everything, then page out
	// each page that is still Local, still on its frame, and still clean.
	evicted := 0
	for i := range items {
		it := &items[i]
		f := s.Pool.Meta(it.frame)
		f.Pinned = false
		if it.failed {
			continue
		}
		pte := s.Table.Lookup(it.vpn)
		if pte.Tag() != pagetable.TagLocal || dram.FrameID(pte.Frame()) != it.frame ||
			pte.Dirty() || f.VPN != it.vpn {
			continue
		}
		if s.Mgr.PageOut(p, it.frame, it.vpn) {
			evicted++
		}
	}
	return evicted
}

// DiscardRange evicts every resident, unpinned page in [addr, addr+bytes)
// WITHOUT writing dirty content back — the MADV_FREE of the simulated
// LibOS. The caller declares the range dead: after the call the pool copy
// is whatever was last written back, and a later fault on the range reads
// that stale content. Callers must therefore rewrite before they read
// (the KV-cache's region recycling does exactly that). Returns the number
// of frames returned to the pool. The whole call runs without a yield.
func (s *System) DiscardRange(p *sim.Proc, addr uint64, bytes uint64) int {
	if bytes == 0 {
		return 0
	}
	first := pagetable.VPNOf(addr)
	last := pagetable.VPNOf(addr + bytes - 1)
	n := 0
	for v := first; v <= last; v++ {
		pte := s.Table.Lookup(v)
		if pte.Tag() != pagetable.TagLocal {
			continue
		}
		id := dram.FrameID(pte.Frame())
		f := s.Pool.Meta(id)
		if f.Pinned || f.VPN != v {
			continue
		}
		if pte.Dirty() {
			p.Advance(s.Mgr.Cfg.TagCAS)
			s.Table.Set(v, pte&^pagetable.BitDirty)
		}
		if s.Mgr.PageOut(p, id, v) {
			n++
		}
	}
	return n
}
