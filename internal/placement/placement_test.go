package placement

import (
	"testing"

	"dilos/internal/pagetable"
)

// bump is a trivial per-node slot allocator for tests.
type bump struct{ next []uint64 }

func newBump(nodes int) *bump { return &bump{next: make([]uint64, nodes)} }

func (b *bump) alloc(node int, slots uint64) (uint64, error) {
	off := b.next[node]
	b.next[node] += slots * PageSize
	return off, nil
}

// TestPolicyBijective checks the core Policy contract for every shipped
// policy: across a region no two pages share a (node, slot) pair and
// every slot stays below SlotsPerNode.
func TestPolicyBijective(t *testing.T) {
	for _, p := range Policies() {
		for _, nodes := range []int{1, 2, 3, 5, 8} {
			for _, pages := range []uint64{1, 2, 7, 64, 1000} {
				per := p.SlotsPerNode(pages, nodes)
				seen := make(map[[2]uint64]uint64)
				for i := uint64(0); i < pages; i++ {
					node, slot := p.Place(i, pages, nodes)
					if node < 0 || node >= nodes {
						t.Fatalf("%s: page %d of %d/%d nodes → node %d out of range", p.Name(), i, pages, nodes, node)
					}
					if slot >= per {
						t.Fatalf("%s: page %d slot %d >= SlotsPerNode %d", p.Name(), i, slot, per)
					}
					key := [2]uint64{uint64(node), slot}
					if prev, dup := seen[key]; dup {
						t.Fatalf("%s: pages %d and %d collide on node %d slot %d (pages=%d nodes=%d)",
							p.Name(), prev, i, node, slot, pages, nodes)
					}
					seen[key] = i
				}
			}
		}
	}
}

// TestPolicyDeterministic checks Place is a pure function of its inputs.
func TestPolicyDeterministic(t *testing.T) {
	for _, p := range Policies() {
		for i := uint64(0); i < 100; i++ {
			n1, s1 := p.Place(i, 100, 3)
			n2, s2 := p.Place(i, 100, 3)
			if n1 != n2 || s1 != s2 {
				t.Fatalf("%s: Place(%d) not deterministic", p.Name(), i)
			}
		}
	}
}

// TestStripedMatchesLegacyLayout pins Striped to the exact layout the
// multi-node extension shipped with: page i → node i%N, slot i/N.
func TestStripedMatchesLegacyLayout(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 4} {
		for i := uint64(0); i < 50; i++ {
			node, slot := (Striped{}).Place(i, 50, nodes)
			if node != int(i%uint64(nodes)) || slot != i/uint64(nodes) {
				t.Fatalf("striped page %d over %d nodes: got (%d,%d), want (%d,%d)",
					i, nodes, node, slot, i%uint64(nodes), i/uint64(nodes))
			}
		}
	}
}

// TestBlockedContiguous checks Blocked keeps runs whole: page indices on
// each node form one contiguous ascending range.
func TestBlockedContiguous(t *testing.T) {
	const pages, nodes = 100, 3
	prevNode := 0
	for i := uint64(0); i < pages; i++ {
		node, _ := (Blocked{}).Place(i, pages, nodes)
		if node < prevNode {
			t.Fatalf("blocked: node went backwards at page %d (%d → %d)", i, prevNode, node)
		}
		prevNode = node
	}
	if prevNode != nodes-1 {
		t.Fatalf("blocked: last page on node %d, want %d", prevNode, nodes-1)
	}
}

// TestHashedSeedVariation checks distinct seeds yield distinct layouts
// (and each is still a bijection, covered by TestPolicyBijective for the
// zero seed).
func TestHashedSeedVariation(t *testing.T) {
	const pages = 256
	same := 0
	for i := uint64(0); i < pages; i++ {
		a := Hashed{Seed: 1}.permute(i, pages)
		b := Hashed{Seed: 2}.permute(i, pages)
		if a == b {
			same++
		}
	}
	if same == pages {
		t.Fatalf("hashed: seeds 1 and 2 produce identical permutations")
	}
	// Seeded permutations must each be bijections too.
	for _, seed := range []uint64{1, 2, 0xdeadbeef} {
		seen := make(map[uint64]bool, pages)
		for i := uint64(0); i < pages; i++ {
			v := Hashed{Seed: seed}.permute(i, pages)
			if v >= pages {
				t.Fatalf("hashed seed %#x: permute(%d) = %d out of range", seed, i, v)
			}
			if seen[v] {
				t.Fatalf("hashed seed %#x: permute collision at %d", seed, i)
			}
			seen[v] = true
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.Name())
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", p.Name(), err)
		}
		if got.Name() != p.Name() {
			t.Fatalf("ParsePolicy(%q) → %q", p.Name(), got.Name())
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown name")
	}
}

// TestResolveInvariants is the §6 property test: every mapped VPN
// resolves to exactly R slots on pairwise-distinct nodes with the
// primary first, under every policy.
func TestResolveInvariants(t *testing.T) {
	for _, p := range Policies() {
		const nodes, replicas = 3, 2
		a := New(Config{Nodes: nodes, Replicas: replicas, Policy: p})
		b := newBump(nodes)
		reg, err := a.Map(97, b.alloc)
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			node int
			off  uint64
		}
		used := make(map[key]pagetable.VPN)
		for i := uint64(0); i < reg.Pages; i++ {
			v := reg.BaseVPN + pagetable.VPN(i)
			slots, failover, ok := a.AppendResolve(nil, v)
			if !ok || failover {
				t.Fatalf("%s: Resolve(%d) ok=%v failover=%v", p.Name(), v, ok, failover)
			}
			if len(slots) != replicas {
				t.Fatalf("%s: vpn %d has %d slots, want %d", p.Name(), v, len(slots), replicas)
			}
			prim, ok := a.Primary(v)
			if !ok || slots[0] != prim {
				t.Fatalf("%s: vpn %d head slot %+v is not the primary %+v", p.Name(), v, slots[0], prim)
			}
			nodesSeen := map[int]bool{}
			for _, s := range slots {
				if nodesSeen[s.Node] {
					t.Fatalf("%s: vpn %d has two replicas on node %d", p.Name(), v, s.Node)
				}
				nodesSeen[s.Node] = true
				k := key{s.Node, s.Off}
				if prev, dup := used[k]; dup {
					t.Fatalf("%s: vpn %d and %d share node %d off %d", p.Name(), v, prev, s.Node, s.Off)
				}
				used[k] = v
			}
		}
	}
}

// TestResolveOutsideRegions checks unmapped VPNs report !ok.
func TestResolveOutsideRegions(t *testing.T) {
	a := New(Config{Nodes: 2})
	b := newBump(2)
	reg, err := a.Map(10, b.alloc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := a.AppendResolve(nil, reg.BaseVPN-1); ok {
		t.Fatal("resolved a VPN below the region")
	}
	if _, _, ok := a.AppendResolve(nil, reg.BaseVPN+pagetable.VPN(reg.Pages)); ok {
		t.Fatal("resolved a VPN past the region")
	}
	if _, ok := a.First(reg.BaseVPN + pagetable.VPN(reg.Pages)); ok {
		t.Fatal("First resolved a VPN past the region")
	}
}

// TestFailover checks the §6 failover invariants: after a node fails,
// Resolve never returns it, pages whose primary died report failover,
// and the last live node cannot be failed.
func TestFailover(t *testing.T) {
	const nodes, replicas = 3, 2
	a := New(Config{Nodes: nodes, Replicas: replicas})
	b := newBump(nodes)
	reg, err := a.Map(60, b.alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetState(1, Failed); err != nil {
		t.Fatal(err)
	}
	if !a.Failed(1) {
		t.Fatal("Failed(1) = false after SetState(1, Failed)")
	}
	failovers := 0
	for i := uint64(0); i < reg.Pages; i++ {
		v := reg.BaseVPN + pagetable.VPN(i)
		slots, failover, ok := a.AppendResolve(nil, v)
		if !ok {
			t.Fatalf("Resolve(%d) failed", v)
		}
		for _, s := range slots {
			if s.Node == 1 {
				t.Fatalf("vpn %d resolved to failed node 1", v)
			}
		}
		prim, _ := a.Primary(v)
		if failover != (prim.Node == 1) {
			t.Fatalf("vpn %d: failover=%v but primary node is %d", v, failover, prim.Node)
		}
		if failover {
			failovers++
			// The survivor must be the page's first replica: node (1+1)%3.
			if slots[0].Node != 2 {
				t.Fatalf("vpn %d: failover served by node %d, want 2", v, slots[0].Node)
			}
		}
	}
	if want := int(reg.Pages) / nodes; failovers != want {
		t.Fatalf("failovers = %d, want %d", failovers, want)
	}

	// Failing an already-failed node is a no-op, and the last serving
	// node cannot be failed — SetState reports the guard as an error.
	if err := a.SetState(1, Failed); err != nil {
		t.Fatalf("re-failing node 1: %v", err)
	}
	if err := a.SetState(0, Failed); err != nil {
		t.Fatal(err)
	}
	if err := a.SetState(2, Failed); err == nil {
		t.Fatal("failing the last serving node did not error")
	}
}

// TestMapVAAssignment checks regions get disjoint, ascending VA ranges
// and alloc sees the replica-scaled slot count.
func TestMapVAAssignment(t *testing.T) {
	const nodes, replicas = 2, 2
	a := New(Config{Nodes: nodes, Replicas: replicas})
	var allocs []uint64
	alloc := func(node int, slots uint64) (uint64, error) {
		allocs = append(allocs, slots)
		return 0, nil
	}
	r1, err := a.Map(10, alloc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Map(4, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Base != 1<<30 {
		t.Fatalf("first region base %#x, want 1 GiB", r1.Base)
	}
	if r2.Base != r1.Base+r1.Pages*PageSize {
		t.Fatalf("second region base %#x not contiguous after first", r2.Base)
	}
	// 10 pages over 2 nodes → 5 slots per segment × 2 replicas = 10.
	if allocs[0] != 10 || allocs[1] != 10 {
		t.Fatalf("first Map allocs = %v, want [10 10]", allocs[:2])
	}
	if got := len(a.Regions()); got != 2 {
		t.Fatalf("Regions() len = %d, want 2", got)
	}
}

func TestConfigValidation(t *testing.T) {
	a := New(Config{})
	if a.Nodes() != 1 || a.Replicas() != 1 || a.Policy().Name() != "striped" {
		t.Fatalf("zero Config defaults wrong: nodes=%d replicas=%d policy=%s",
			a.Nodes(), a.Replicas(), a.Policy().Name())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Replicas > Nodes did not panic")
		}
	}()
	New(Config{Nodes: 2, Replicas: 3})
}

// TestAllReplicasDownDegrades is the regression test for the old
// behaviour where Resolve panicked once every replica of a mapped page
// had failed. With 3 nodes and 2 replicas, failing nodes 0 and 1 leaves
// the pages replicated on {0,1} with no readable copy: Resolve must
// report that with ok=true and an empty slot list, and First must return
// false — never a panic.
func TestAllReplicasDownDegrades(t *testing.T) {
	a := New(Config{Nodes: 3, Replicas: 2})
	b := newBump(3)
	reg, err := a.Map(60, b.alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetState(0, Failed); err != nil {
		t.Fatal(err)
	}
	if err := a.SetState(1, Failed); err != nil {
		t.Fatal(err)
	}
	stranded := 0
	for i := uint64(0); i < reg.Pages; i++ {
		v := reg.BaseVPN + pagetable.VPN(i)
		slots, failover, ok := a.AppendResolve(nil, v)
		if !ok {
			t.Fatalf("Resolve(%d): mapped page reported unmapped", v)
		}
		if len(slots) == 0 {
			stranded++
			if !failover {
				t.Fatalf("vpn %d: no readable replica but failover=false", v)
			}
			if _, ok := a.First(v); ok {
				t.Fatalf("First(%d) returned a slot with every replica down", v)
			}
			// The layout identity survives: AllSlots still names both copies.
			all, ok := a.AllSlots(v)
			if !ok || len(all) != 2 {
				t.Fatalf("AllSlots(%d) = %v, %v", v, all, ok)
			}
			continue
		}
		for _, s := range slots {
			if s.Node != 2 {
				t.Fatalf("vpn %d resolved to dead node %d", v, s.Node)
			}
		}
	}
	// Striped over 3 nodes with replicas on (p, p+1): pages with primary 0
	// (replica 1) are stranded — a third of the region.
	if want := int(reg.Pages) / 3; stranded != want {
		t.Fatalf("stranded pages = %d, want %d", stranded, want)
	}
}

// TestRecoveryStates walks a node through failed → syncing → live and
// checks what each state serves: a syncing node receives write-backs but
// no reads, and only the transition to Live makes it readable again.
func TestRecoveryStates(t *testing.T) {
	a := New(Config{Nodes: 2, Replicas: 2})
	b := newBump(2)
	reg, err := a.Map(8, b.alloc)
	if err != nil {
		t.Fatal(err)
	}
	v := reg.BaseVPN
	if a.LiveNodes() != 2 {
		t.Fatalf("LiveNodes = %d", a.LiveNodes())
	}

	if err := a.SetState(1, Failed); err != nil {
		t.Fatal(err)
	}
	if a.LiveNodes() != 1 || !a.Failed(1) {
		t.Fatalf("after fail: live=%d failed=%v", a.LiveNodes(), a.Failed(1))
	}
	if ws, _ := a.AppendWriteSlots(nil, v); len(ws) != 1 || ws[0].Node != 0 {
		t.Fatalf("failed node still receives writes: %v", ws)
	}

	if err := a.SetState(1, Syncing); err != nil {
		t.Fatal(err)
	}
	if a.LiveNodes() != 1 {
		t.Fatalf("syncing node counted live")
	}
	slots, _, _ := a.AppendResolve(nil, v)
	for _, s := range slots {
		if s.Node == 1 {
			t.Fatal("syncing node served a read")
		}
	}
	ws, _ := a.AppendWriteSlots(nil, v)
	if len(ws) != 2 {
		t.Fatalf("syncing node missing from WriteSlots: %v", ws)
	}

	if err := a.SetState(1, Live); err != nil {
		t.Fatal(err)
	}
	if a.LiveNodes() != 2 || a.Failed(1) {
		t.Fatalf("after recover: live=%d failed=%v", a.LiveNodes(), a.Failed(1))
	}
	slots, _, _ = a.AppendResolve(nil, v)
	if len(slots) != 2 {
		t.Fatalf("recovered node not serving reads: %v", slots)
	}

	// Failed → Live must pass through Syncing: the direct transition is
	// outside the machine and rejected.
	if err := a.SetState(0, Failed); err != nil {
		t.Fatal(err)
	}
	if err := a.SetState(0, Live); err == nil {
		t.Fatal("Failed → Live skipped the syncing state")
	}
	if !a.Failed(0) {
		t.Fatal("rejected transition mutated state")
	}
	if err := a.SetState(0, Syncing); err != nil {
		t.Fatal(err)
	}
	if err := a.SetState(0, Live); err != nil {
		t.Fatal(err)
	}
	if a.Failed(0) || a.LiveNodes() != 2 {
		t.Fatalf("after recover: live=%d failed=%v", a.LiveNodes(), a.Failed(0))
	}
}

// TestAppendFormsReuseDst: AppendResolve and AppendWriteSlots keep dst's
// prefix, allocate nothing into a buffer with room, and agree with the
// deprecated fresh-slice forms.
func TestAppendFormsReuseDst(t *testing.T) {
	a := New(Config{Nodes: 3, Replicas: 2})
	reg := mustMap(t, a, 16)
	v := reg.BaseVPN + 5
	head := Slot{Node: 9, Off: 1}
	got, failover, ok := a.AppendResolve([]Slot{head}, v)
	want, _, _ := a.Resolve(v)
	if !ok || failover || len(got) != 3 || got[0] != head || got[1] != want[0] || got[2] != want[1] {
		t.Fatalf("AppendResolve = %v (ok=%v failover=%v), want %v after %v", got, ok, failover, want, head)
	}
	wgot, ok := a.AppendWriteSlots([]Slot{head}, v)
	wwant, _ := a.WriteSlots(v)
	if !ok || len(wgot) != 3 || wgot[0] != head || wgot[1] != wwant[0] || wgot[2] != wwant[1] {
		t.Fatalf("AppendWriteSlots = %v, want %v after %v", wgot, wwant, head)
	}
	if got, _, ok := a.AppendResolve(got[:1], reg.BaseVPN-1); ok || len(got) != 1 {
		t.Fatalf("unmapped AppendResolve = %v ok=%v, want dst back unchanged", got, ok)
	}
	buf := make([]Slot, 0, MaxInlineReplicas)
	allocs := testing.AllocsPerRun(100, func() {
		buf, _, _ = a.AppendResolve(buf[:0], v)
		buf, _ = a.AppendWriteSlots(buf[:0], v)
	})
	if allocs != 0 {
		t.Fatalf("append forms into scratch: %v allocs/op, want 0", allocs)
	}
}
