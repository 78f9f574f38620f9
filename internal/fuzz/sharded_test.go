package fuzz

import (
	"testing"

	"dircc/internal/coherent"
	"dircc/internal/core"
	"dircc/internal/protocol/fullmap"
	"dircc/internal/protocol/limited"
	"dircc/internal/protocol/list"
	"dircc/internal/protocol/stp"
)

// shardSafeEngines is the differential set for the parallel kernel:
// every engine family has lane-affine handlers since the chain/tree
// restructure — chain splices, tombstone hops and
// subtree invalidations now travel through the deferred-op façade, so
// the list and tree schemes are part of the oracle too.
func shardSafeEngines() []NamedEngine {
	return []NamedEngine{
		{"fm", func() coherent.Engine { return fullmap.New() }},
		{"Dir2B", func() coherent.Engine { return limited.NewB(2) }},
		{"Dir4NB", func() coherent.Engine { return limited.NewNB(4) }},
		{"LimitLESS4", func() coherent.Engine { return limited.NewLimitLESS(4) }},
		{"Dir4Tree2", func() coherent.Engine { return core.New(4, 2) }},
		{"stp", func() coherent.Engine { return stp.New() }},
		{"sci", func() coherent.Engine { return list.NewSCI() }},
		{"sll", func() coherent.Engine { return list.NewSLL() }},
	}
}

// TestShardedFuzzSmoke is the fuzz-level determinism oracle for the
// time-windowed parallel kernel: 200 seed-derived workloads, each
// shard-safe engine run sequentially and on 4 shards, with Mem,
// ReadDigest AND Cycles required to be identical. Unlike the
// cross-engine differential (where timing is free to differ), the
// sharded engine promises bit-exact equality with the sequential
// kernel — so cycles are part of the oracle here.
func TestShardedFuzzSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed sweep; skipped in -short")
	}
	engines := shardSafeEngines()
	for seed := uint64(1); seed <= 200; seed++ {
		w := ForSeed(seed)
		for _, eng := range engines {
			seq := RunWorkloadUnchecked(w, eng)
			if seq.Err != nil {
				t.Fatalf("seed %d %s sequential: %v", seed, eng.Name, seq.Err)
			}
			shd := RunWorkloadSharded(w, eng, 4)
			if shd.Err != nil {
				t.Fatalf("seed %d %s shards=4: %v", seed, eng.Name, shd.Err)
			}
			if shd.Cycles != seq.Cycles {
				t.Fatalf("seed %d %s: sharded cycles %d != sequential %d", seed, eng.Name, shd.Cycles, seq.Cycles)
			}
			if shd.ReadDigest != seq.ReadDigest {
				t.Fatalf("seed %d %s: sharded read digest %#x != sequential %#x", seed, eng.Name, shd.ReadDigest, seq.ReadDigest)
			}
			for b := range seq.Mem {
				if shd.Mem[b] != seq.Mem[b] {
					t.Fatalf("seed %d %s: sharded memory block %d = %#x, sequential has %#x",
						seed, eng.Name, b, shd.Mem[b], seq.Mem[b])
				}
			}
		}
	}
}
