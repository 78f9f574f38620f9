package fuzz

import "testing"

// The native fuzz targets. Under plain `go test` they replay the
// committed corpus in testdata/fuzz/ (which includes every seed that
// has caught a real engine bug); under `go test -fuzz` they explore
// fresh seeds. Everything downstream of the seed is deterministic, so
// a crasher reproduces from its corpus file alone.

// FuzzDifferential drives the six-scheme engine set from a bare seed:
// the workload, generator and machine size all derive from it.
func FuzzDifferential(f *testing.F) {
	for _, seed := range corpusSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		w := ForSeed(seed)
		d, err := RunDifferential(w, AllEngines())
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			min, dd := ShrinkDivergence(d, AllEngines())
			t.Fatalf("divergence, minimized to %d ops:\n%s\n%s", min.OpCount(), dd, min.Canon())
		}
	})
}

// FuzzDirTree focuses on the paper's Dir_iTree_k scheme across pointer
// counts and arities — the deep-tree configurations beyond the model
// checker's exhaustive horizon.
func FuzzDirTree(f *testing.F) {
	for _, seed := range corpusSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		w := ForSeed(seed)
		d, err := RunDifferential(w, TreeEngines())
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			min, dd := ShrinkDivergence(d, TreeEngines())
			t.Fatalf("divergence, minimized to %d ops:\n%s\n%s", min.OpCount(), dd, min.Canon())
		}
	})
}

// FuzzChainSurgery explores the chain-surgery family natively: the
// seed picks the machine size and the surgery schedule, and every
// chain/tree engine must agree with the oracle and be bit-identical
// between the sequential and 4-shard kernels. The family lives outside
// the frozen ForSeed catalog, so it needs its own target.
func FuzzChainSurgery(f *testing.F) {
	for _, seed := range corpusSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		w := ChainSurgeryForSeed(seed)
		engines := ChainEngines()
		d, err := RunDifferential(w, engines)
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			min, dd := ShrinkDivergence(d, engines)
			t.Fatalf("divergence, minimized to %d ops:\n%s\n%s", min.OpCount(), dd, min.Canon())
		}
		for _, eng := range engines[1:] {
			seq := RunWorkloadUnchecked(w, eng)
			shd := RunWorkloadSharded(w, eng, 4)
			if seq.Err != nil || shd.Err != nil {
				t.Fatalf("%s: sequential err %v, sharded err %v", eng.Name, seq.Err, shd.Err)
			}
			if shd.Cycles != seq.Cycles || shd.ReadDigest != seq.ReadDigest {
				t.Fatalf("%s: sharded (cycles %d, digest %#x) != sequential (cycles %d, digest %#x)",
					eng.Name, shd.Cycles, shd.ReadDigest, seq.Cycles, seq.ReadDigest)
			}
		}
	})
}

// corpusSeeds seeds every fuzz target. The first eight are the seeds
// that caught the SCI attach-deadlock, SCI splice and STP served-marking
// bugs during development; the rest spread across the generator catalog.
var corpusSeeds = []uint64{1, 20, 26, 44, 56, 139, 250, 477, 7, 73, 1001, 0xdeadbeef}
