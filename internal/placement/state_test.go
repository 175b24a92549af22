package placement

import (
	"strings"
	"testing"

	"dilos/internal/pagetable"
)

// driveTo walks node i into the wanted state through valid transitions.
func driveTo(t *testing.T, a *AddressSpace, i int, want State) {
	t.Helper()
	var path []State
	switch want {
	case Live:
		path = nil
	case Failed:
		path = []State{Failed}
	case Syncing:
		path = []State{Failed, Syncing}
	case Draining:
		path = []State{Draining}
	case Removed:
		path = []State{Draining, Removed}
	}
	for _, st := range path {
		if err := a.SetState(i, st); err != nil {
			t.Fatalf("driving node %d to %s: %v", i, want, err)
		}
	}
	if got := a.State(i); got != want {
		t.Fatalf("drove node %d to %s, got %s", i, want, got)
	}
}

// TestSetStateTransitionTable checks every (from, to) pair against the
// documented machine: live ⇄ failed ⇄ syncing, live ⇄ draining,
// draining→failed, {draining,failed}→removed, removed terminal.
func TestSetStateTransitionTable(t *testing.T) {
	valid := map[[2]State]bool{
		{Live, Failed}:      true,
		{Live, Draining}:    true,
		{Failed, Syncing}:   true,
		{Failed, Removed}:   true,
		{Syncing, Live}:     true,
		{Syncing, Failed}:   true,
		{Draining, Removed}: true,
		{Draining, Failed}:  true,
		{Draining, Live}:    true,
	}
	states := []State{Live, Failed, Syncing, Draining, Removed}
	for _, from := range states {
		for _, to := range states {
			a := New(Config{Nodes: 3})
			driveTo(t, a, 1, from)
			err := a.SetState(1, to)
			switch {
			case from == to:
				if err != nil {
					t.Errorf("%s → %s: same-state must be a no-op, got %v", from, to, err)
				}
			case valid[[2]State{from, to}]:
				if err != nil {
					t.Errorf("%s → %s: want valid, got %v", from, to, err)
				} else if a.State(1) != to {
					t.Errorf("%s → %s: state is %s", from, to, a.State(1))
				}
			default:
				if err == nil {
					t.Errorf("%s → %s: invalid transition accepted", from, to)
				}
				if a.State(1) != from {
					t.Errorf("%s → %s: rejected transition mutated state to %s", from, to, a.State(1))
				}
			}
		}
	}
}

func TestSetStateLastServingNodeGuard(t *testing.T) {
	a := New(Config{Nodes: 2})
	if err := a.SetState(0, Failed); err != nil {
		t.Fatalf("failing node 0: %v", err)
	}
	if err := a.SetState(1, Failed); err == nil {
		t.Fatal("failed the last serving node")
	}
	if err := a.SetState(1, Draining); err != nil {
		t.Fatalf("draining keeps the node serving, want allowed: %v", err)
	}
	// A draining last-serving node cannot be removed or failed either.
	if err := a.SetState(1, Removed); err == nil {
		t.Fatal("removed the last serving node")
	}
	if err := a.SetState(1, Failed); err == nil {
		t.Fatal("failed the last serving (draining) node")
	}
}

func TestRemoveRequiresEmptyOccupancy(t *testing.T) {
	a := New(Config{Nodes: 2})
	mustMap(t, a, 8)
	if err := a.SetState(1, Draining); err != nil {
		t.Fatalf("drain: %v", err)
	}
	err := a.SetState(1, Removed)
	if err == nil || !strings.Contains(err.Error(), "hosts") {
		t.Fatalf("removed an occupied node (err=%v)", err)
	}
}

func TestStateChangeEvents(t *testing.T) {
	a := New(Config{Nodes: 2})
	type ev struct {
		node     int
		from, to State
	}
	var got []ev
	a.OnStateChange(func(node int, from, to State) { got = append(got, ev{node, from, to}) })
	if err := a.SetState(1, Failed); err != nil {
		t.Fatal(err)
	}
	_ = a.SetState(1, Failed) // no-op must not fire
	if id := a.AddNode(); id != 2 {
		t.Fatalf("AddNode id %d, want 2", id)
	}
	want := []ev{{1, Live, Failed}, {2, Removed, Live}}
	if len(got) != len(want) {
		t.Fatalf("events %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFailRecoverCycle(t *testing.T) {
	a := New(Config{Nodes: 2})
	for _, step := range []struct {
		to   State
		want State
	}{
		{Failed, Failed},
		{Syncing, Syncing},
		{Live, Live},
		{Failed, Failed},
		{Syncing, Syncing},
		{Live, Live},
	} {
		if err := a.SetState(1, step.to); err != nil {
			t.Fatalf("SetState(1, %s): %v", step.to, err)
		}
		if a.State(1) != step.want {
			t.Fatalf("State(1) = %s, want %s", a.State(1), step.want)
		}
	}
}

func mustMap(t *testing.T, a *AddressSpace, pages uint64) Region {
	t.Helper()
	var next [16]uint64
	reg, err := a.Map(pages, func(node int, slots uint64) (uint64, error) {
		base := next[node]
		next[node] += slots * PageSize
		return base, nil
	})
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	return reg
}

func TestMapSnapshotsLiveMembers(t *testing.T) {
	a := New(Config{Nodes: 3})
	if err := a.SetState(2, Draining); err != nil {
		t.Fatal(err)
	}
	reg := mustMap(t, a, 12)
	for i := uint64(0); i < reg.Pages; i++ {
		sl, ok := a.Primary(reg.BaseVPN + pagetable.VPN(i))
		if !ok {
			t.Fatalf("page %d unmapped", i)
		}
		if sl.Node == 2 {
			t.Fatalf("page %d landed on the draining node", i)
		}
	}
	if a.Occupancy(2) != 0 {
		t.Fatalf("draining node gained occupancy %d", a.Occupancy(2))
	}
	if a.Occupancy(0)+a.Occupancy(1) != 12 {
		t.Fatalf("members host %d+%d slots, want 12", a.Occupancy(0), a.Occupancy(1))
	}
}

func TestMapRejectsTooFewLiveNodes(t *testing.T) {
	a := New(Config{Nodes: 2, Replicas: 2})
	if err := a.SetState(1, Draining); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Map(4, func(int, uint64) (uint64, error) { return 0, nil }); err == nil {
		t.Fatal("mapped 2 replicas over 1 live node")
	}
}

func TestMigrateCopyThenFlip(t *testing.T) {
	a := New(Config{Nodes: 3, Replicas: 2})
	reg := mustMap(t, a, 6)
	v := reg.BaseVPN
	before, _ := a.AllSlots(v)
	// Find the node hosting no replica of v — the only legal destination.
	dstNode := 0
	for n := 0; n < 3; n++ {
		hosts := false
		for _, s := range before {
			if s.Node == n {
				hosts = true
			}
		}
		if !hosts {
			dstNode = n
		}
	}
	dst := Slot{Node: dstNode, Off: 1 << 20}
	// Rejections first.
	if err := a.BeginMigrate(v, 0, Slot{Node: before[1].Node}); err == nil {
		t.Fatal("migrated onto a node already hosting a replica")
	}
	if err := a.BeginMigrate(v, 5, dst); err == nil {
		t.Fatal("replica index out of range accepted")
	}
	if err := a.BeginMigrate(v, 0, dst); err != nil {
		t.Fatalf("begin: %v", err)
	}
	if err := a.BeginMigrate(v, 1, dst); err == nil {
		t.Fatal("double begin accepted")
	}
	// Mid-copy: reads and write-backs still resolve to the old slots,
	// and a write-back raises the written-during-copy flag.
	if a.MigrationWrote(v) {
		t.Fatal("wrote flag set before any write")
	}
	ws, _ := a.AppendWriteSlots(nil, v)
	if len(ws) != 2 || ws[0] != before[0] {
		t.Fatalf("write slots changed mid-copy: %v", ws)
	}
	if !a.MigrationWrote(v) {
		t.Fatal("WriteSlots did not flag the in-flight copy")
	}
	a.ResetMigrationWrote(v)
	if a.MigrationWrote(v) {
		t.Fatal("flag survived reset")
	}
	occSrc, occDst := a.Occupancy(before[0].Node), a.Occupancy(dstNode)
	old, err := a.CompleteMigrate(v)
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	if old != before[0] {
		t.Fatalf("vacated %v, want %v", old, before[0])
	}
	after, _ := a.AllSlots(v)
	if after[0] != dst || after[1] != before[1] {
		t.Fatalf("flip produced %v, want [%v %v]", after, dst, before[1])
	}
	if p, _ := a.Primary(v); p != dst {
		t.Fatalf("Primary %v, want %v", p, dst)
	}
	slots, failover, ok := a.AppendResolve(nil, v)
	if !ok || failover || len(slots) != 2 || slots[0] != dst {
		t.Fatalf("Resolve after flip: %v failover=%v", slots, failover)
	}
	if a.Occupancy(before[0].Node) != occSrc-1 || a.Occupancy(dstNode) != occDst+1 {
		t.Fatal("occupancy did not follow the flip")
	}
	if a.MigrationsInFlight() != 0 || a.Forwarded() != 1 {
		t.Fatalf("inflight=%d forwarded=%d", a.MigrationsInFlight(), a.Forwarded())
	}
	// Abort path: start another move and cancel it.
	free := Slot{Node: old.Node, Off: 2 << 20}
	if err := a.BeginMigrate(v, 1, free); err != nil {
		t.Fatalf("second begin: %v", err)
	}
	got, ok := a.AbortMigrate(v)
	if !ok || got != free {
		t.Fatalf("abort returned %v/%v", got, ok)
	}
	if cur, _ := a.AllSlots(v); cur[1] != before[1] {
		t.Fatal("abort mutated the replica set")
	}
}

func TestMigrateDstMustBeLive(t *testing.T) {
	a := New(Config{Nodes: 3})
	reg := mustMap(t, a, 3)
	if err := a.SetState(2, Failed); err != nil {
		t.Fatal(err)
	}
	v := reg.BaseVPN
	if err := a.BeginMigrate(v, 0, Slot{Node: 2}); err == nil {
		t.Fatal("migrated onto a failed node")
	}
}
