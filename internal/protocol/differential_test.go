// Package protocol_test runs differential tests across every coherence
// engine in the repository: the same deterministic workload must leave
// the same final memory image and return the same per-processor read
// values under every protocol, since coherence protocols may change
// timing but never results.
package protocol_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dircc/internal/apps"
	"dircc/internal/coherent"
	"dircc/internal/core"
	"dircc/internal/proc"
	"dircc/internal/protocol/fullmap"
	"dircc/internal/protocol/limited"
	"dircc/internal/protocol/list"
	"dircc/internal/protocol/stp"
)

func allEngines() map[string]func() coherent.Engine {
	return map[string]func() coherent.Engine{
		"fm":         func() coherent.Engine { return fullmap.New() },
		"Dir1NB":     func() coherent.Engine { return limited.NewNB(1) },
		"Dir4NB":     func() coherent.Engine { return limited.NewNB(4) },
		"Dir2B":      func() coherent.Engine { return limited.NewB(2) },
		"LimitLESS4": func() coherent.Engine { return limited.NewLimitLESS(4) },
		"Dir1Tree2":  func() coherent.Engine { return core.New(1, 2) },
		"Dir4Tree2":  func() coherent.Engine { return core.New(4, 2) },
		"sll":        func() coherent.Engine { return list.NewSLL() },
		"sci":        func() coherent.Engine { return list.NewSCI() },
		"stp":        func() coherent.Engine { return stp.New() },
	}
}

// runWorkload executes a deterministic barrier-phased workload and
// returns the final memory image plus a digest of every value read.
func runWorkload(t *testing.T, factory func() coherent.Engine, procs, blocks, phases int, tiny bool, seed int64) ([]uint64, uint64) {
	t.Helper()
	cfg := coherent.DefaultConfig(procs)
	cfg.Check = true
	cfg.MaxEvents = 100_000_000
	if tiny {
		cfg.CacheBytes = 16 * cfg.BlockBytes
	}
	m, err := coherent.NewMachine(cfg, factory())
	if err != nil {
		t.Fatal(err)
	}
	base := m.Alloc(uint64(blocks * 8))
	digests := make([]uint64, procs)
	if _, err := proc.Run(m, func(e proc.Env) {
		rng := rand.New(rand.NewSource(seed + int64(e.ID())))
		var digest uint64
		for ph := 0; ph < phases; ph++ {
			// Within a phase each processor owns a disjoint slice of
			// blocks for writing (deterministic values) and reads a
			// random sample of all blocks. Barriers separate phases so
			// the read values are well-defined.
			lo := e.ID() * blocks / e.NProcs()
			hi := (e.ID() + 1) * blocks / e.NProcs()
			for b := lo; b < hi; b++ {
				e.Write(base+uint64(b*8), uint64(ph)<<32|uint64(b)*2654435761)
			}
			e.Barrier()
			for k := 0; k < blocks/2; k++ {
				b := rng.Intn(blocks)
				digest = digest*31 + e.Read(base+uint64(b*8))
			}
			e.Barrier()
		}
		digests[e.ID()] = digest
	}); err != nil {
		t.Fatal(err)
	}
	final := make([]uint64, blocks)
	for b := 0; b < blocks; b++ {
		final[b] = m.Store.Value(m.BlockOf(base + uint64(b*8)))
	}
	var dsum uint64
	for _, d := range digests {
		dsum = dsum*1099511628211 + d
	}
	return final, dsum
}

// TestDifferentialFinalState: all engines agree on memory contents and
// on every value every processor observed.
func TestDifferentialFinalState(t *testing.T) {
	type result struct {
		final  []uint64
		digest uint64
	}
	for _, scenario := range []struct {
		name          string
		procs, blocks int
		phases        int
		tiny          bool
	}{
		{"8p-32b", 8, 32, 4, false},
		{"8p-32b-tinycache", 8, 32, 4, true},
		{"16p-48b", 16, 48, 3, false},
	} {
		scenario := scenario
		t.Run(scenario.name, func(t *testing.T) {
			var refName string
			var ref result
			for name, f := range allEngines() {
				final, digest := runWorkload(t, f, scenario.procs, scenario.blocks, scenario.phases, scenario.tiny, 77)
				if refName == "" {
					refName, ref = name, result{final, digest}
					continue
				}
				if digest != ref.digest {
					t.Errorf("%s read digest %x differs from %s's %x", name, digest, refName, ref.digest)
				}
				for b := range final {
					if final[b] != ref.final[b] {
						t.Fatalf("%s final[%d] = %x, %s has %x", name, b, final[b], refName, ref.final[b])
					}
				}
			}
		})
	}
}

// TestDifferentialLockedCounter: the locked read-modify-write counter
// must reach exactly procs*rounds under every engine.
func TestDifferentialLockedCounter(t *testing.T) {
	const rounds = 20
	for name, f := range allEngines() {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			cfg := coherent.DefaultConfig(8)
			cfg.Check = true
			m, err := coherent.NewMachine(cfg, f())
			if err != nil {
				t.Fatal(err)
			}
			addr := m.Alloc(8)
			if _, err := proc.Run(m, func(e proc.Env) {
				for i := 0; i < rounds; i++ {
					e.Lock(1)
					e.Write(addr, e.Read(addr)+1)
					e.Unlock(1)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if got := m.Store.Value(m.BlockOf(addr)); got != 8*rounds {
				t.Fatalf("counter = %d, want %d", got, 8*rounds)
			}
		})
	}
}

// TestDifferentialDeterminism: each engine is cycle-deterministic —
// rerunning the same scenario gives the same simulated time.
func TestDifferentialDeterminism(t *testing.T) {
	for name, f := range allEngines() {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			run := func() uint64 {
				cfg := coherent.DefaultConfig(8)
				m, err := coherent.NewMachine(cfg, f())
				if err != nil {
					t.Fatal(err)
				}
				base := m.Alloc(64 * 8)
				cycles, err := proc.Run(m, func(e proc.Env) {
					rng := rand.New(rand.NewSource(int64(e.ID())))
					for i := 0; i < 300; i++ {
						a := base + uint64(rng.Intn(64))*8
						if rng.Intn(4) == 0 {
							e.Write(a, uint64(i))
						} else {
							e.Read(a)
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				return uint64(cycles)
			}
			if a, b := run(), run(); a != b {
				t.Fatalf("%s nondeterministic: %d vs %d cycles", name, a, b)
			}
		})
	}
}

// TestDifferentialMessageEconomy sanity-checks the Table 2 qualitative
// ordering on a read-heavy phase: the tree scheme must not send more
// messages than SCI (whose read misses cost four).
func TestDifferentialMessageEconomy(t *testing.T) {
	count := func(f func() coherent.Engine) uint64 {
		cfg := coherent.DefaultConfig(16)
		m, err := coherent.NewMachine(cfg, f())
		if err != nil {
			t.Fatal(err)
		}
		addr := m.Alloc(32 * 8)
		if _, err := proc.Run(m, func(e proc.Env) {
			for i := 0; i < 32; i++ {
				e.Read(addr + uint64(i*8))
			}
		}); err != nil {
			t.Fatal(err)
		}
		return m.Ctr.Messages
	}
	tree := count(func() coherent.Engine { return core.New(4, 2) })
	sci := count(func() coherent.Engine { return list.NewSCI() })
	if tree > sci {
		t.Fatalf("Dir4Tree2 used %d messages on a read-shared sweep, SCI %d", tree, sci)
	}
	fmt.Fprintf(testingDiscard{}, "tree=%d sci=%d", tree, sci)
}

type testingDiscard struct{}

func (testingDiscard) Write(p []byte) (int, error) { return len(p), nil }

// anyUpdateEngine returns the update-variant engine for the Figure 3
// variant test.
func anyUpdateEngine() (coherent.Engine, string) {
	return core.NewWithOptions(4, 2, core.Options{Update: true}), "Dir4Tree2U"
}

// TestDifferentialApps table-drives every SPLASH-style application of
// internal/apps across every engine at P∈{4,8}. Each app checks its
// numeric result against a sequential reference computation, so a
// protocol that loses a write or serves a stale value fails the run
// outright — this closes the gap where SOR and FFT only ran under a
// three-engine subset.
func TestDifferentialApps(t *testing.T) {
	newApps := map[string]func() apps.App{
		"mp3d":  func() apps.App { return &apps.MP3D{Particles: 160, Steps: 3, CellsPerDim: 4, Seed: 1} },
		"lu":    func() apps.App { return &apps.LU{N: 20, Seed: 2} },
		"floyd": func() apps.App { return &apps.Floyd{V: 12, EdgeProb: 0.3, Seed: 3} },
		"fft":   func() apps.App { return &apps.FFT{Points: 64, Seed: 4} },
		"sor":   func() apps.App { return &apps.SOR{N: 16, Iters: 3, Seed: 6} },
	}
	for appName, newApp := range newApps {
		for _, procs := range []int{4, 8} {
			for engName, f := range allEngines() {
				appName, newApp, procs, engName, f := appName, newApp, procs, engName, f
				t.Run(fmt.Sprintf("%s/p%d/%s", appName, procs, engName), func(t *testing.T) {
					t.Parallel()
					cfg := coherent.DefaultConfig(procs)
					cfg.Check = true
					cfg.MaxEvents = 400_000_000
					m, err := coherent.NewMachine(cfg, f())
					if err != nil {
						t.Fatal(err)
					}
					a := newApp()
					body, check := a.Prepare(m)
					if _, err := proc.Run(m, body); err != nil {
						t.Fatal(err)
					}
					if err := check(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
