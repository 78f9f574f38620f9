package fuzz

import (
	"testing"
	"time"
)

// TestSmokeDifferential is the time-boxed CI tier: 200 seed-derived
// workloads through all six differential schemes (machine sizes up to
// P=32), every one of which must agree with the full-map oracle. The
// whole sweep must stay inside a minute — it runs on every `make
// check`.
func TestSmokeDifferential(t *testing.T) {
	engines := AllEngines()
	start := time.Now()
	bad := 0
	for seed := uint64(1); seed <= 200; seed++ {
		w := ForSeed(seed)
		d, err := RunDifferential(w, engines)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d != nil {
			bad++
			min, dd := ShrinkDivergence(d, engines)
			t.Errorf("seed %d, minimized to %d ops:\n%s\n%s", seed, min.OpCount(), dd, min.Canon())
			if bad >= 3 {
				t.Fatal("too many divergences; stopping early")
			}
		}
	}
	if el := time.Since(start); el > 60*time.Second {
		t.Errorf("smoke tier took %v, budget is 60s", el)
	}
}

// TestChainSurgerySmoke drives the chain-surgery family — concurrent
// mid-chain evictions, re-attaches and invalidation waves aimed at one
// sharing list — through 200 seeds. Each workload must agree with the
// full-map oracle across the chain/tree engine set, and each chain/tree
// engine must be bit-identical between the sequential and 4-shard
// kernels (cycles, read digest, memory image). The family lives outside
// the frozen ForSeed catalog, so it gets its own smoke loop here and
// its own native fuzz target (FuzzChainSurgery).
func TestChainSurgerySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("200-seed sweep; skipped in -short")
	}
	engines := ChainEngines()
	for seed := uint64(1); seed <= 200; seed++ {
		w := ChainSurgeryForSeed(seed)
		d, err := RunDifferential(w, engines)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d != nil {
			min, dd := ShrinkDivergence(d, engines)
			t.Fatalf("seed %d, minimized to %d ops:\n%s\n%s", seed, min.OpCount(), dd, min.Canon())
		}
		for _, eng := range engines[1:] {
			seq := RunWorkloadUnchecked(w, eng)
			if seq.Err != nil {
				t.Fatalf("seed %d %s sequential: %v", seed, eng.Name, seq.Err)
			}
			shd := RunWorkloadSharded(w, eng, 4)
			if shd.Err != nil {
				t.Fatalf("seed %d %s shards=4: %v", seed, eng.Name, shd.Err)
			}
			if shd.Cycles != seq.Cycles || shd.ReadDigest != seq.ReadDigest {
				t.Fatalf("seed %d %s: sharded (cycles %d, digest %#x) != sequential (cycles %d, digest %#x)",
					seed, eng.Name, shd.Cycles, shd.ReadDigest, seq.Cycles, seq.ReadDigest)
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

// TestRegressionSeeds pins the exact seeds whose workloads exposed
// real engine bugs during the fuzzer's development — the SCI
// attach-deferral deadlock (1, 20, 44), the SCI stale-splice coverage
// losses (56, 139) and the STP served-marking deadlock (26, 250, 477).
// Their exhaustively minimized forms live on as model-checker grid
// entries (internal/check, sci-p4-storm and friends); this test keeps
// the original full-size workloads in the loop too.
func TestRegressionSeeds(t *testing.T) {
	engines := AllEngines()
	for _, seed := range []uint64{1, 20, 26, 44, 56, 139, 250, 477} {
		w := ForSeed(seed)
		if d, err := RunDifferential(w, engines); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		} else if d != nil {
			t.Errorf("seed %d (%s): %s", seed, w.Name, d)
		}
	}
}
