package pagemgr

import (
	"testing"

	"dilos/internal/dram"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
)

// newShardedFixture builds a fixture whose pool is split into n shards.
func newShardedFixture(t testing.TB, shards, frames int, pages uint64) *fixture {
	t.Helper()
	f := newFixture(t, frames, pages, DefaultConfig(frames))
	f.pool.SetShards(shards)
	return f
}

// mapPageOn maps vpn into a fresh frame homed to `core`'s shard, clean and
// with the accessed bit already clear — immediately evictable, so clock
// order is observable without second-chance rotations.
func (f *fixture) mapPageOn(core int, vpn pagetable.VPN) dram.FrameID {
	id, ok := f.pool.Alloc()
	if !ok {
		panic("fixture pool exhausted")
	}
	f.tbl.Set(vpn, pagetable.Local(uint64(id), true))
	f.mgr.InsertLRUFor(core, id, vpn)
	return id
}

// TestStealPreservesVictimClockOrder empties shard 0 and fills shard 1
// with evictable pages, then drives shard 0's reclaimer through
// reclaimStepSteal: every eviction must steal shard 1's *coldest* frame —
// stealing borrows the neighbour's clock hand, it does not scramble it.
func TestStealPreservesVictimClockOrder(t *testing.T) {
	const pages = 8
	f := newShardedFixture(t, 2, 16, pages)
	order := make([]pagetable.VPN, 0, pages)
	for v := pagetable.VPN(0); v < pages; v++ {
		f.mapPageOn(1, v) // all homed to shard 1; shard 0 stays empty
		order = append(order, v)
	}
	f.run(func(p *sim.Proc) {
		for i := 0; i < pages; i++ {
			before := f.pool.LRULenOf(1)
			victim, ok := f.mgr.reclaimStepSteal(p, 0)
			if !ok {
				t.Fatalf("steal %d found nothing with %d frames on shard 1", i, before)
			}
			if victim != 1 {
				t.Fatalf("steal %d reported victim shard %d, want 1", i, victim)
			}
			if f.pool.LRULenOf(1) != before-1 {
				t.Fatalf("steal %d did not shrink shard 1 (%d -> %d)",
					i, before, f.pool.LRULenOf(1))
			}
			// Insertion order is clock order here; the stolen victim must be
			// the cold end, so the evicted page is order[i] — now Remote.
			if got := f.tbl.Lookup(order[i]).Tag(); got != pagetable.TagRemote {
				t.Fatalf("steal %d: vpn %d is %v, want remote (stolen out of order)",
					i, order[i], got)
			}
			// The survivors keep their relative order.
			want := order[i+1:]
			k := 0
			f.pool.WalkShard(1, func(id dram.FrameID, fr *dram.Frame) bool {
				if k >= len(want) || fr.VPN != want[k] {
					t.Fatalf("after steal %d: shard 1 position %d holds vpn %d, want %d",
						i, k, fr.VPN, want[k])
				}
				k++
				return true
			})
			if k != len(want) {
				t.Fatalf("after steal %d: shard 1 has %d frames, want %d", i, k, len(want))
			}
		}
	})
	if f.mgr.Evicted.N != pages {
		t.Fatalf("evictions = %d, want %d", f.mgr.Evicted.N, pages)
	}
}

// TestStealPrefersOwnShard gives both shards evictable frames: the daemon
// must drain its own shard before touching the neighbour's.
func TestStealPrefersOwnShard(t *testing.T) {
	f := newShardedFixture(t, 2, 16, 8)
	f.mapPageOn(0, 0)
	f.mapPageOn(1, 1)
	f.run(func(p *sim.Proc) {
		victim, ok := f.mgr.reclaimStepSteal(p, 0)
		if !ok {
			t.Fatal("no eviction")
		}
		if victim != 0 {
			t.Fatalf("victim shard = %d, want own shard 0", victim)
		}
	})
	if f.tbl.Lookup(0).Tag() != pagetable.TagRemote {
		t.Fatal("own-shard victim not evicted")
	}
	if f.tbl.Lookup(1).Tag() != pagetable.TagLocal {
		t.Fatal("neighbour raided while own shard had a victim")
	}
}
