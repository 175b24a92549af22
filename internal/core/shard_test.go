package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"dilos/internal/fabric"
	"dilos/internal/sim"
)

// TestShardedSameSeedByteIdentical runs the sharded configuration twice —
// four cores random-writing disjoint partitions under eviction pressure,
// per-shard daemons and work stealing live — and demands byte-identical
// metric snapshots: sharding must not introduce schedule nondeterminism.
func TestShardedSameSeedByteIdentical(t *testing.T) {
	run := func() []byte {
		const cores, partPages = 4, 96
		eng := sim.New()
		sys := New(eng, Config{
			CacheFrames: cores * partPages / 4, // 4x pressure
			Cores:       cores,
			Shards:      cores,
			RemoteBytes: 64 << 20,
			Fabric:      fabric.DefaultParams(),
		})
		sys.Start()
		base, err := sys.MmapDDC(uint64(cores * partPages))
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < cores; c++ {
			c := c
			sys.Launch(fmt.Sprintf("app%d", c), c, func(sp *DDCProc) {
				lcg := uint64(c)*0x9e3779b97f4a7c15 + 1
				pbase := base + uint64(c)*partPages*PageSize
				for i := 0; i < 2*partPages; i++ {
					lcg = lcg*6364136223846793005 + 1442695040888963407
					sp.StoreU64(pbase+((lcg>>33)%partPages)*PageSize, lcg)
				}
			})
		}
		eng.Run()
		b, err := json.Marshal(sys.Registry().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same-seed sharded runs diverged:\n%s\nvs\n%s", a, b)
	}
}
