// Package placement is the shared placement substrate of every paging
// system in this repository: it owns the DDC address-space layout —
// virtual-address assignment, the page→(memory node, remote slot)
// mapping, R-way replication, node-failure failover, and live-migration
// forwarding — behind a pluggable Policy. core (DiLOS), fastswap, and
// aifm all resolve remote offsets through an AddressSpace instead of
// hand-rolling their own region bookkeeping, so new placement schemes
// and failure-handling changes are single-package edits.
//
// Layout invariants (property-tested, see DESIGN.md §6):
//
//   - every mapped VPN resolves to exactly one primary slot plus R−1
//     replica slots on pairwise-distinct nodes;
//   - no two pages of a region share a (node, segment, slot) triple;
//   - Resolve never returns a slot on a failed, syncing, or removed
//     node, and failing a node never strands a page (the last serving
//     node cannot be failed); when every replica of a page is
//     unreachable Resolve reports it with an empty slot list, never a
//     panic;
//   - per-node occupancy always equals the number of replica slots the
//     node currently hosts, forwarding entries included.
//
// Node membership is an explicit five-state machine driven through
// SetState (DESIGN.md §10):
//
//	live ──────→ failed ──→ syncing ──→ live
//	  │            ↑  │
//	  └→ draining ─┘  └───→ removed
//	       │  ↑live (cancel)
//	       └──────→ removed
//
// live serves reads and writes; draining still serves both but accepts
// no new regions while the migration engine evacuates it; syncing (a
// recovering node) accepts write-backs but serves no reads until
// re-replication completes; failed serves nothing; removed is terminal.
package placement

import (
	"fmt"
	"sort"

	"dilos/internal/pagetable"
)

// PageSize re-exports the paging granularity.
const PageSize = pagetable.PageSize

// Slot locates one replica copy of a page: the memory node index and the
// byte offset inside that node's registered region.
type Slot struct {
	Node int
	Off  uint64
}

// MaxInlineReplicas sizes the fixed scratch arrays callers hand to
// AppendResolve and AppendWriteSlots: at this replication factor or below
// a lookup stays on the caller's stack; above it the append spills to the
// heap, still correct.
const MaxInlineReplicas = 4

// Config assembles an AddressSpace.
type Config struct {
	// Nodes is the memory-node count (default 1).
	Nodes int
	// Replicas keeps this many copies of every page on distinct nodes
	// (default 1, i.e. no replication). Must not exceed Nodes.
	Replicas int
	// Policy picks the page→node layout (default Striped).
	Policy Policy
	// BaseVA is the first DDC virtual address (default 1 GiB).
	BaseVA uint64
}

// State is a memory node's membership state. The zero value is Live.
type State uint8

const (
	// Live nodes serve reads and writes and join new regions.
	Live State = iota
	// Failed nodes serve nothing (breaker tripped or declared dead).
	Failed
	// Syncing nodes are recovering: they accept write-backs so fresh
	// data reaches them while re-replication backfills the old, but
	// serve no reads until promoted back to Live.
	Syncing
	// Draining nodes still serve reads and writes but join no new
	// regions; the migration engine is evacuating their slots so the
	// node can be Removed.
	Draining
	// Removed nodes have left the pool for good. Terminal.
	Removed

	numStates
)

var stateNames = [numStates]string{"live", "failed", "syncing", "draining", "removed"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// validTransition is the membership state machine. Everything not listed
// is rejected by SetState; same-state is a silent no-op.
var validTransition = [numStates][numStates]bool{
	Live:     {Failed: true, Draining: true},
	Failed:   {Syncing: true, Removed: true},
	Syncing:  {Live: true, Failed: true},
	Draining: {Removed: true, Failed: true, Live: true},
	Removed:  {},
}

// readable reports whether a node in state s serves reads.
func readable(s State) bool { return s == Live || s == Draining }

// writable reports whether a node in state s accepts write-backs.
func writable(s State) bool { return s == Live || s == Draining || s == Syncing }

// migEntry tracks one in-flight replica move: replica k of the page is
// being copied to dst. wrote is set whenever WriteSlots hands the page
// out as a write-back target during the copy — the migration engine must
// then restart the copy (or take the frame's bytes) before flipping, so
// dirty data written mid-copy is never lost.
type migEntry struct {
	k     int
	dst   Slot
	wrote bool
}

// AddressSpace owns the DDC regions of one computing node.
type AddressSpace struct {
	policy   Policy
	nodes    int
	replicas int
	state    []State
	occ      []int64 // replica slots hosted per node (forwarding-aware)
	serving  int     // nodes currently readable (Live or Draining)
	regions  []region
	nextVA   uint64

	// moved is the forwarding table: pages whose replica set no longer
	// matches the policy layout because a migration flipped them. The
	// stored list fully replaces the computed one (same length, primary
	// first).
	moved map[pagetable.VPN][]Slot
	// migrating holds the in-flight moves (copy started, not flipped).
	migrating map[pagetable.VPN]*migEntry

	subs []func(node int, from, to State)
}

// region is one mapped range. members snapshots the node set the region
// was laid out over (policy index → node id), so membership changes
// after Map never remap existing pages — only migration does, through
// the forwarding table.
type region struct {
	baseVPN     pagetable.VPN
	pages       uint64
	members     []int
	remoteBases []uint64 // one backing base per member, parallel to members
	perNode     uint64   // slot capacity per member per replica segment
}

// Region describes one mapped DDC range.
type Region struct {
	Base    uint64
	BaseVPN pagetable.VPN
	Pages   uint64
}

// New creates an empty address space.
func New(cfg Config) *AddressSpace {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > cfg.Nodes {
		panic("placement: Replicas must not exceed the memory node count")
	}
	if cfg.Policy == nil {
		cfg.Policy = Striped{}
	}
	if cfg.BaseVA == 0 {
		cfg.BaseVA = 1 << 30 // DDC regions start at 1 GiB
	}
	return &AddressSpace{
		policy:   cfg.Policy,
		nodes:    cfg.Nodes,
		replicas: cfg.Replicas,
		state:    make([]State, cfg.Nodes),
		occ:      make([]int64, cfg.Nodes),
		serving:  cfg.Nodes,
		nextVA:   cfg.BaseVA,
	}
}

// Nodes returns the memory-node count, removed nodes included (node ids
// are never reused).
func (a *AddressSpace) Nodes() int { return a.nodes }

// Replicas returns the replication factor.
func (a *AddressSpace) Replicas() int { return a.replicas }

// Policy returns the placement policy in force.
func (a *AddressSpace) Policy() Policy { return a.policy }

// Regions returns the mapped regions in VPN order.
func (a *AddressSpace) Regions() []Region {
	out := make([]Region, len(a.regions))
	for i, r := range a.regions {
		out[i] = Region{Base: uint64(r.baseVPN) * PageSize, BaseVPN: r.baseVPN, Pages: r.pages}
	}
	return out
}

// AddNode grows the pool by one empty Live node and returns its id. The
// node joins regions mapped from now on and becomes a migration
// destination immediately; existing pages move to it only through the
// migration engine (Rebalance). Subscribers observe the join as a
// Removed→Live transition.
func (a *AddressSpace) AddNode() int {
	id := a.nodes
	a.nodes++
	a.state = append(a.state, Live)
	a.occ = append(a.occ, 0)
	a.serving++
	for _, fn := range a.subs {
		fn(id, Removed, Live)
	}
	return id
}

// OnStateChange registers fn to run synchronously on every node state
// transition (AddNode joins appear as Removed→Live). Callbacks fire in
// registration order and must not call back into SetState.
func (a *AddressSpace) OnStateChange(fn func(node int, from, to State)) {
	a.subs = append(a.subs, fn)
}

// State returns node i's membership state.
func (a *AddressSpace) State(i int) State {
	a.checkNode(i)
	return a.state[i]
}

// Occupancy returns the number of replica slots node i currently hosts,
// counting forwarded (migrated-in) pages and discounting migrated-out
// ones. A node is safe to remove exactly when this reaches zero.
func (a *AddressSpace) Occupancy(i int) int64 {
	a.checkNode(i)
	return a.occ[i]
}

// SetState drives node i through the membership state machine,
// validating the transition (see the package diagram) and firing the
// subscriber hooks. Same-state calls are silent no-ops. It rejects:
//
//   - transitions outside the machine (e.g. live→syncing, removed→*);
//   - taking the last serving (readable) node out of service — that
//     would strand every singly-replicated page;
//   - removing a node that still hosts slots (drain it first).
func (a *AddressSpace) SetState(i int, to State) error {
	a.checkNode(i)
	if to >= numStates {
		return fmt.Errorf("placement: no such state %d", int(to))
	}
	from := a.state[i]
	if from == to {
		return nil
	}
	if !validTransition[from][to] {
		return fmt.Errorf("placement: node %d: invalid transition %s → %s", i, from, to)
	}
	if readable(from) && !readable(to) && a.serving == 1 {
		return fmt.Errorf("placement: node %d: cannot go %s: it is the last serving node", i, to)
	}
	if to == Removed && a.occ[i] != 0 {
		return fmt.Errorf("placement: node %d: cannot remove: still hosts %d slots (drain first)", i, a.occ[i])
	}
	if readable(from) && !readable(to) {
		a.serving--
	} else if !readable(from) && readable(to) {
		a.serving++
	}
	a.state[i] = to
	for _, fn := range a.subs {
		fn(i, from, to)
	}
	return nil
}

// Map carves a fresh VA range of `pages` pages and provisions its remote
// backing across the currently Live nodes: alloc is called once per
// member node with the slot count that node must register (covering all
// replica segments) and returns the node-local base offset of the range
// it reserved. The member set is snapshotted into the region, so later
// membership changes never remap existing pages.
func (a *AddressSpace) Map(pages uint64, alloc func(node int, slots uint64) (uint64, error)) (Region, error) {
	if pages == 0 {
		return Region{}, fmt.Errorf("placement: zero-page region")
	}
	var members []int
	for i, st := range a.state {
		if st == Live {
			members = append(members, i)
		}
	}
	if len(members) < a.replicas {
		return Region{}, fmt.Errorf("placement: %d live node(s) cannot host %d replicas", len(members), a.replicas)
	}
	perNode := a.policy.SlotsPerNode(pages, len(members))
	bases := make([]uint64, len(members))
	for mi, node := range members {
		base, err := alloc(node, perNode*uint64(a.replicas))
		if err != nil {
			return Region{}, err
		}
		bases[mi] = base
	}
	base := a.nextVA
	a.nextVA += pages * PageSize
	r := region{baseVPN: pagetable.VPNOf(base), pages: pages, members: members, remoteBases: bases, perNode: perNode}
	a.regions = append(a.regions, r)
	sort.Slice(a.regions, func(i, j int) bool { return a.regions[i].baseVPN < a.regions[j].baseVPN })
	for idx := uint64(0); idx < pages; idx++ {
		primary, _ := a.policy.Place(idx, pages, len(members))
		for k := 0; k < a.replicas; k++ {
			a.occ[members[(primary+k)%len(members)]]++
		}
	}
	return Region{Base: base, BaseVPN: r.baseVPN, Pages: pages}, nil
}

// lookup finds the region containing v.
func (a *AddressSpace) lookup(v pagetable.VPN) (*region, uint64, bool) {
	i := sort.Search(len(a.regions), func(i int) bool { return a.regions[i].baseVPN > v })
	if i == 0 {
		return nil, 0, false
	}
	r := &a.regions[i-1]
	idx := uint64(v - r.baseVPN)
	if idx >= r.pages {
		return nil, 0, false
	}
	return r, idx, true
}

// slotOf computes replica k's slot for page idx of region r: member
// position (primary+k) mod M, segment k, at the page's primary slot
// index.
func (a *AddressSpace) slotOf(r *region, idx uint64, primary int, slot uint64, k int) Slot {
	pos := (primary + k) % len(r.members)
	return Slot{
		Node: r.members[pos],
		Off:  r.remoteBases[pos] + (uint64(k)*r.perNode+slot)*PageSize,
	}
}

// Primary returns the page's primary slot regardless of node health —
// the stable identity used for initial PTE payloads, following the
// forwarding table for migrated pages. Use Resolve for anything that
// touches the wire.
func (a *AddressSpace) Primary(v pagetable.VPN) (Slot, bool) {
	r, idx, ok := a.lookup(v)
	if !ok {
		return Slot{}, false
	}
	if ov := a.moved[v]; ov != nil {
		return ov[0], true
	}
	primary, slot := a.policy.Place(idx, r.pages, len(r.members))
	return a.slotOf(r, idx, primary, slot, 0), true
}

// AppendResolve appends every readable replica slot of a page to dst and
// returns the extended slice: primary first, skipping failed, syncing and
// removed nodes; migrated pages resolve through the forwarding table.
// failover reports that the page's primary node is not readable (the head
// slot, if any, is a non-primary replica) — fault handlers use it to count
// genuine failover fetches. ok means "mapped": a mapped page whose every
// replica is unreachable returns ok=true with nothing appended, so callers
// must check the length and degrade (wait, retry, or surface an error)
// instead of relying on a panic. The caller owns dst; pass a scratch
// buffer to keep the lookup allocation-free.
func (a *AddressSpace) AppendResolve(dst []Slot, v pagetable.VPN) (slots []Slot, failover, ok bool) {
	r, idx, ok := a.lookup(v)
	if !ok {
		return dst, false, false
	}
	ov := a.moved[v]
	var primary int
	var slot uint64
	if ov == nil {
		primary, slot = a.policy.Place(idx, r.pages, len(r.members))
	}
	for k := 0; k < a.replicas; k++ {
		var s Slot
		if ov != nil {
			s = ov[k]
		} else {
			s = a.slotOf(r, idx, primary, slot, k)
		}
		if !readable(a.state[s.Node]) {
			if k == 0 {
				failover = true
			}
			continue
		}
		dst = append(dst, s)
	}
	return dst, failover, true
}

// AppendWriteSlots appends every replica slot of a page that should receive
// write-backs to dst and returns the extended slice: slots on live and
// draining nodes plus slots on syncing nodes (a recovering node must see
// new writes while re-replication backfills the old ones, or it would come
// back stale). Migrated pages follow the forwarding table. If the page has
// a copy in flight, the call also flags the move as written-during-copy,
// forcing the migration engine to restart from fresh bytes before it flips
// — write-backs keep landing in the old slots and are never lost.
func (a *AddressSpace) AppendWriteSlots(dst []Slot, v pagetable.VPN) (slots []Slot, ok bool) {
	r, idx, ok := a.lookup(v)
	if !ok {
		return dst, false
	}
	if e := a.migrating[v]; e != nil {
		e.wrote = true
	}
	ov := a.moved[v]
	var primary int
	var slot uint64
	if ov == nil {
		primary, slot = a.policy.Place(idx, r.pages, len(r.members))
	}
	for k := 0; k < a.replicas; k++ {
		var s Slot
		if ov != nil {
			s = ov[k]
		} else {
			s = a.slotOf(r, idx, primary, slot, k)
		}
		if !writable(a.state[s.Node]) {
			continue
		}
		dst = append(dst, s)
	}
	return dst, true
}

// Resolve is AppendResolve into a fresh slice.
//
// Deprecated: use AppendResolve with a caller-owned buffer. Resolve stays
// only because the repository benchmark (perfbench/) calls it.
func (a *AddressSpace) Resolve(v pagetable.VPN) (slots []Slot, failover, ok bool) {
	return a.AppendResolve(nil, v)
}

// WriteSlots is AppendWriteSlots into a fresh slice.
//
// Deprecated: use AppendWriteSlots with a caller-owned buffer. WriteSlots
// stays only because the repository benchmark (perfbench/) calls it.
func (a *AddressSpace) WriteSlots(v pagetable.VPN) (slots []Slot, ok bool) {
	return a.AppendWriteSlots(nil, v)
}

// AllSlots returns every replica slot of a page regardless of node
// health, primary first and forwarding-aware — the layout identity
// re-replication and the migration engine walk.
func (a *AddressSpace) AllSlots(v pagetable.VPN) (slots []Slot, ok bool) {
	r, idx, ok := a.lookup(v)
	if !ok {
		return nil, false
	}
	if ov := a.moved[v]; ov != nil {
		return ov, true
	}
	primary, slot := a.policy.Place(idx, r.pages, len(r.members))
	for k := 0; k < a.replicas; k++ {
		slots = append(slots, a.slotOf(r, idx, primary, slot, k))
	}
	return slots, true
}

// First returns the first readable replica slot of a page — the fetch
// target. ok is false when the page is unmapped or no replica is
// currently readable.
func (a *AddressSpace) First(v pagetable.VPN) (Slot, bool) {
	var buf [MaxInlineReplicas]Slot
	slots, _, ok := a.AppendResolve(buf[:0], v)
	if !ok || len(slots) == 0 {
		return Slot{}, false
	}
	return slots[0], true
}

// BeginMigrate starts moving replica k of page v to dst: reads keep
// resolving to the old slot, write-backs keep landing there too (and
// flag the move, see WriteSlots), and CompleteMigrate flips the page
// atomically once the copy is done. The destination must be a Live node
// that hosts no other replica of the page.
func (a *AddressSpace) BeginMigrate(v pagetable.VPN, k int, dst Slot) error {
	a.checkNode(dst.Node)
	if a.state[dst.Node] != Live {
		return fmt.Errorf("placement: migrate dst node %d is %s, want live", dst.Node, a.state[dst.Node])
	}
	if a.migrating[v] != nil {
		return fmt.Errorf("placement: page %#x is already migrating", uint64(v))
	}
	slots, ok := a.AllSlots(v)
	if !ok {
		return fmt.Errorf("placement: page %#x is not mapped", uint64(v))
	}
	if k < 0 || k >= len(slots) {
		return fmt.Errorf("placement: replica %d out of range (R=%d)", k, len(slots))
	}
	for j, s := range slots {
		if s.Node == dst.Node {
			if j == k {
				return fmt.Errorf("placement: page %#x replica %d already lives on node %d", uint64(v), k, dst.Node)
			}
			return fmt.Errorf("placement: node %d already hosts replica %d of page %#x", dst.Node, j, uint64(v))
		}
	}
	if a.migrating == nil {
		a.migrating = make(map[pagetable.VPN]*migEntry)
	}
	a.migrating[v] = &migEntry{k: k, dst: dst}
	return nil
}

// Migrating returns the in-flight destination of page v's pending move.
func (a *AddressSpace) Migrating(v pagetable.VPN) (dst Slot, k int, ok bool) {
	e := a.migrating[v]
	if e == nil {
		return Slot{}, 0, false
	}
	return e.dst, e.k, true
}

// MigrationWrote reports whether a write-back targeted page v since the
// copy round last reset the flag — the copy the engine holds may be
// stale and must be redone.
func (a *AddressSpace) MigrationWrote(v pagetable.VPN) bool {
	e := a.migrating[v]
	return e != nil && e.wrote
}

// ResetMigrationWrote clears the written-during-copy flag; the engine
// calls it right before (re)issuing the copy read.
func (a *AddressSpace) ResetMigrationWrote(v pagetable.VPN) {
	if e := a.migrating[v]; e != nil {
		e.wrote = false
	}
}

// CompleteMigrate flips page v's replica set to the migration
// destination and returns the vacated slot (the engine recycles it).
// The flip installs a forwarding entry, moves the occupancy count, and
// is atomic from the simulation's point of view — the caller must not
// have yielded since it validated the copy.
func (a *AddressSpace) CompleteMigrate(v pagetable.VPN) (Slot, error) {
	e := a.migrating[v]
	if e == nil {
		return Slot{}, fmt.Errorf("placement: page %#x is not migrating", uint64(v))
	}
	slots, ok := a.AllSlots(v)
	if !ok {
		return Slot{}, fmt.Errorf("placement: page %#x is not mapped", uint64(v))
	}
	old := slots[e.k]
	ns := make([]Slot, len(slots))
	copy(ns, slots)
	ns[e.k] = e.dst
	if a.moved == nil {
		a.moved = make(map[pagetable.VPN][]Slot)
	}
	a.moved[v] = ns
	a.occ[old.Node]--
	a.occ[e.dst.Node]++
	delete(a.migrating, v)
	return old, nil
}

// AbortMigrate cancels page v's pending move, returning the reserved
// destination slot so the engine can recycle it. ok is false when no
// move was in flight.
func (a *AddressSpace) AbortMigrate(v pagetable.VPN) (dst Slot, ok bool) {
	e := a.migrating[v]
	if e == nil {
		return Slot{}, false
	}
	delete(a.migrating, v)
	return e.dst, true
}

// MigrationsInFlight returns the number of pages mid-copy.
func (a *AddressSpace) MigrationsInFlight() int { return len(a.migrating) }

// Forwarded returns the number of pages resolving through the
// forwarding table (flipped at least once).
func (a *AddressSpace) Forwarded() int { return len(a.moved) }

// Failed reports whether node i is currently unreadable (failed,
// syncing, or removed). Draining nodes still serve reads and are not
// "failed".
func (a *AddressSpace) Failed(i int) bool { return !readable(a.state[i]) }

// LiveNodes returns the number of serving (readable) nodes: Live plus
// Draining.
func (a *AddressSpace) LiveNodes() int { return a.serving }

func (a *AddressSpace) checkNode(i int) {
	if i < 0 || i >= a.nodes {
		panic(fmt.Sprintf("placement: no such node %d", i))
	}
}
