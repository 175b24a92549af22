package pagemgr

import (
	"bytes"
	"testing"

	"dilos/internal/pagetable"
	"dilos/internal/sim"
)

// The cleaner pass must clean every dirty page and land its bytes while
// coalescing contiguous remote offsets and ringing one doorbell per queue
// pair.
func TestCleanPassBatchedCoalescesAndCleans(t *testing.T) {
	const n = 8
	f := newFixture(t, 16, 16, DefaultConfig(16))
	for v := pagetable.VPN(0); v < n; v++ {
		f.mapPage(v, true, byte(0xa0+v))
	}
	f.run(func(p *sim.Proc) { f.mgr.cleanPass(p, 0) })
	if f.mgr.Cleaned.N != n {
		t.Fatalf("cleaned = %d, want %d", f.mgr.Cleaned.N, n)
	}
	for v := pagetable.VPN(0); v < n; v++ {
		if f.tbl.Lookup(v).Dirty() {
			t.Fatalf("page %d still dirty", v)
		}
		got := make([]byte, pagetable.PageSize)
		f.node.ReadAt(f.base+uint64(v)*pagetable.PageSize, got)
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(0xa0 + v)}, pagetable.PageSize)) {
			t.Fatalf("page %d content wrong after write-back", v)
		}
	}
	if f.link.Batches.N != 1 {
		t.Fatalf("doorbells = %d, want 1 (one per queue pair)", f.link.Batches.N)
	}
	// The fixture's pages are remote-contiguous, so the 8 writes coalesce
	// into ≤3-segment vectors: ceil(8/3) = 3 ops, 5 merged segments.
	if f.link.BatchedOps.N != 3 || f.link.CoalescedSegs.N != 5 {
		t.Fatalf("ops=%d coalesced=%d, want 3/5", f.link.BatchedOps.N, f.link.CoalescedSegs.N)
	}
	if f.link.TxBytes.N != n*pagetable.PageSize {
		t.Fatalf("tx bytes = %d", f.link.TxBytes.N)
	}
}

// The batched sweep reuses the manager's scratch arenas: re-cleaning the
// same dirty set must not grow allocations. The bound is not zero — each
// vectored write still allocates its fabric.Op and a completion timer —
// but it is a handful per sweep, independent of sweep size.
func TestCleanerSweepAllocs(t *testing.T) {
	const n = 32
	f := newFixture(t, 64, 64, DefaultConfig(64))
	var ptes [n]pagetable.PTE
	for v := pagetable.VPN(0); v < n; v++ {
		f.mapPage(v, true, byte(v))
		ptes[v] = f.tbl.Lookup(v)
	}
	f.run(func(p *sim.Proc) {
		f.mgr.cleanPass(p, 0) // warm up: size the scratch arenas
		avg := testing.AllocsPerRun(8, func() {
			for v := pagetable.VPN(0); v < n; v++ {
				f.tbl.Set(v, ptes[v]) // re-dirty
			}
			f.mgr.cleanPass(p, 0)
		})
		// ceil(32/3) = 11 vectored ops; each op allocates itself plus its
		// wait timer. Anything per-page would blow well past this.
		if avg > 30 {
			t.Errorf("cleaner sweep allocates %.1f per pass, want ≤ 30", avg)
		}
	})
}

// The guided sweep must be as allocation-disciplined as the plain one: the
// vector log recycles slots through freeVecs, so re-cleaning the same dirty
// set — store vector, release on re-clean, store again — must not grow
// allocations per pass. This is the guard for the map-free VecIdx scheme:
// the old per-page map rebuilt its entries every sweep.
func TestCleanerSweepAllocsGuided(t *testing.T) {
	const n = 32
	f := newFixture(t, 64, 64, DefaultConfig(64))
	f.mgr.Guide = staticGuide{chunks: []Chunk{{Off: 0, Len: 512}, {Off: 2048, Len: 1024}}}
	var ptes [n]pagetable.PTE
	for v := pagetable.VPN(0); v < n; v++ {
		f.mapPage(v, true, byte(v))
		ptes[v] = f.tbl.Lookup(v)
	}
	f.run(func(p *sim.Proc) {
		f.mgr.cleanPass(p, 0) // warm up: size scratch arenas and the vector log
		avg := testing.AllocsPerRun(8, func() {
			for v := pagetable.VPN(0); v < n; v++ {
				f.tbl.Set(v, ptes[v]) // re-dirty
			}
			f.mgr.cleanPass(p, 0)
		})
		// Guided writes carry 2 segments per page, so pages don't share ops:
		// 32 ops plus wait timers — still O(ops), never O(pages) map churn.
		if avg > 80 {
			t.Errorf("guided cleaner sweep allocates %.1f per pass, want ≤ 80", avg)
		}
	})
	if f.mgr.VectorSaves.N == 0 {
		t.Fatal("guide never engaged — the guard did not cover the guided path")
	}
}
