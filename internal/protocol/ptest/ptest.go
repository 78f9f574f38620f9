// Package ptest is a conformance suite run against every protocol
// engine in the repository. It executes adversarial shared-memory
// workloads on a monitored machine and fails on any coherence
// violation, value error, deadlock, lost message, or leaked
// transaction.
package ptest

import (
	"math/rand"
	"testing"

	"dircc/internal/coherent"
	"dircc/internal/proc"
)

// Factory builds a fresh engine instance (engines hold per-machine
// state and must not be reused across machines).
type Factory func() coherent.Engine

// Conformance runs the full suite against the engine family.
func Conformance(t *testing.T, factory Factory) {
	t.Helper()
	t.Run("SingleWriterManyReaders", func(t *testing.T) { singleWriterManyReaders(t, factory) })
	t.Run("WriteAfterShare", func(t *testing.T) { writeAfterShare(t, factory) })
	t.Run("LockedCounter", func(t *testing.T) { lockedCounter(t, factory) })
	t.Run("MigratoryOwnership", func(t *testing.T) { migratory(t, factory) })
	t.Run("RandomMix", func(t *testing.T) { randomMix(t, factory, 8, 64, 2000, false) })
	t.Run("RandomMixTinyCache", func(t *testing.T) { randomMix(t, factory, 8, 64, 2000, true) })
	t.Run("RandomMixFourProcs", func(t *testing.T) { randomMix(t, factory, 4, 16, 1500, false) })
	t.Run("ReplacementStorm", func(t *testing.T) { replacementStorm(t, factory) })
	t.Run("ProducerConsumerFlag", func(t *testing.T) { producerConsumer(t, factory) })
	t.Run("AllWriteSameBlock", func(t *testing.T) { allWriteSameBlock(t, factory) })
	t.Run("FetchAddCounter", func(t *testing.T) { fetchAddCounter(t, factory) })
	t.Run("MemLockCounter", func(t *testing.T) { memLockCounter(t, factory) })
	t.Run("WriteBufferedMix", func(t *testing.T) { writeBufferedMix(t, factory) })
}

func newMachine(t *testing.T, factory Factory, procs int, tinyCache bool) *coherent.Machine {
	t.Helper()
	cfg := coherent.DefaultConfig(procs)
	cfg.Check = true
	cfg.MaxEvents = 50_000_000
	if tinyCache {
		cfg.CacheBytes = 16 * cfg.BlockBytes // 16 lines: constant replacement
	}
	m, err := coherent.NewMachine(cfg, factory())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// singleWriterManyReaders: everyone reads a region (building maximum
// sharing), one processor overwrites it, everyone re-reads and must
// observe the new values.
func singleWriterManyReaders(t *testing.T, factory Factory) {
	m := newMachine(t, factory, 8, false)
	const blocks = 24
	base := m.Alloc(blocks * 8)
	bad := make([]int, m.Cfg.Procs)
	_, err := proc.Run(m, func(e proc.Env) {
		for i := 0; i < blocks; i++ {
			e.Read(base + uint64(i*8))
		}
		e.Barrier()
		if e.ID() == 0 {
			for i := 0; i < blocks; i++ {
				e.Write(base+uint64(i*8), 1000+uint64(i))
			}
		}
		e.Barrier()
		for i := 0; i < blocks; i++ {
			if got := e.Read(base + uint64(i*8)); got != 1000+uint64(i) {
				bad[e.ID()]++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, n := range bad {
		if n != 0 {
			t.Errorf("processor %d observed %d stale values after invalidation", p, n)
		}
	}
}

// writeAfterShare: interleaved epochs where a rotating writer updates a
// block every epoch and all others must see each epoch's value.
func writeAfterShare(t *testing.T, factory Factory) {
	m := newMachine(t, factory, 8, false)
	addr := m.Alloc(8)
	const epochs = 20
	stale := 0
	_, err := proc.Run(m, func(e proc.Env) {
		for ep := 0; ep < epochs; ep++ {
			writer := ep % e.NProcs()
			if e.ID() == writer {
				e.Write(addr, uint64(ep)*7+1)
			}
			e.Barrier()
			if got := e.Read(addr); got != uint64(ep)*7+1 {
				stale++
			}
			e.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stale != 0 {
		t.Errorf("%d stale reads across epochs", stale)
	}
}

// lockedCounter: the classic mutual-exclusion increment; exercises
// migratory write misses with upgrades.
func lockedCounter(t *testing.T, factory Factory) {
	m := newMachine(t, factory, 8, false)
	addr := m.Alloc(8)
	const perProc = 25
	var final uint64
	_, err := proc.Run(m, func(e proc.Env) {
		for i := 0; i < perProc; i++ {
			e.Lock(0)
			e.Write(addr, e.Read(addr)+1)
			e.Unlock(0)
		}
		e.Barrier()
		if e.ID() == 0 {
			final = e.Read(addr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(8 * perProc); final != want {
		t.Errorf("locked counter = %d, want %d", final, want)
	}
}

// migratory: ownership of a set of blocks migrates around the ring;
// each hop increments, so the final values count the laps.
func migratory(t *testing.T, factory Factory) {
	m := newMachine(t, factory, 4, false)
	const blocks = 8
	base := m.Alloc(blocks * 8)
	const laps = 6
	var finals [blocks]uint64
	_, err := proc.Run(m, func(e proc.Env) {
		n := e.NProcs()
		for lap := 0; lap < laps; lap++ {
			for turn := 0; turn < n; turn++ {
				if turn == e.ID() {
					for i := 0; i < blocks; i++ {
						a := base + uint64(i*8)
						e.Write(a, e.Read(a)+1)
					}
				}
				e.Barrier()
			}
		}
		if e.ID() == 0 {
			for i := 0; i < blocks; i++ {
				finals[i] = e.Read(base + uint64(i*8))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range finals {
		if want := uint64(laps * 4); v != want {
			t.Errorf("block %d = %d, want %d", i, v, want)
		}
	}
}

// randomMix: seeded random reads/writes over a small pool; correctness
// is enforced by the coherence monitor plus quiesce checks.
func randomMix(t *testing.T, factory Factory, procs, blocks, ops int, tinyCache bool) {
	m := newMachine(t, factory, procs, tinyCache)
	base := m.Alloc(uint64(blocks * 8))
	_, err := proc.Run(m, func(e proc.Env) {
		rng := rand.New(rand.NewSource(int64(e.ID()) + 42))
		for i := 0; i < ops; i++ {
			a := base + uint64(rng.Intn(blocks))*8
			if rng.Intn(3) == 0 {
				e.Write(a, uint64(e.ID())<<32|uint64(i))
			} else {
				e.Read(a)
			}
			if rng.Intn(16) == 0 {
				e.Compute(uint64(rng.Intn(20)))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ctr.Messages == 0 {
		t.Error("random mix generated no coherence traffic")
	}
}

// replacementStorm: a working set far larger than a tiny cache, read
// AND written, so every protocol's replacement path (silent drop,
// Replace_INV teardown, unlink, writeback) fires constantly.
func replacementStorm(t *testing.T, factory Factory) {
	m := newMachine(t, factory, 4, true)
	const blocks = 256 // 16-line cache -> constant eviction
	base := m.Alloc(blocks * 8)
	var sum uint64
	_, err := proc.Run(m, func(e proc.Env) {
		if e.ID() == 0 {
			for i := 0; i < blocks; i++ {
				e.Write(base+uint64(i*8), uint64(i))
			}
		}
		e.Barrier()
		// Everyone sweeps twice (sharing + re-fetch after replacement).
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < blocks; i++ {
				e.Read(base + uint64(i*8))
			}
		}
		e.Barrier()
		if e.ID() == 1 {
			for i := 0; i < blocks; i++ {
				sum += e.Read(base + uint64(i*8))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(blocks * (blocks - 1) / 2); sum != want {
		t.Errorf("post-storm sum = %d, want %d", sum, want)
	}
	if m.Ctr.Replacements == 0 {
		t.Error("storm produced no replacements; cache sizing broken")
	}
}

// producerConsumer: a flag/data handoff pattern; the consumer spins on
// a flag block (bounded) and must then see the producer's payload.
func producerConsumer(t *testing.T, factory Factory) {
	m := newMachine(t, factory, 2, false)
	data := m.Alloc(8 * 8)
	flag := m.Alloc(8)
	var got [8]uint64
	_, err := proc.Run(m, func(e proc.Env) {
		if e.ID() == 0 {
			for i := 0; i < 8; i++ {
				e.Write(data+uint64(i*8), uint64(100+i))
			}
			e.Write(flag, 1)
		} else {
			spins := 0
			for e.Read(flag) != 1 {
				e.Compute(10)
				spins++
				if spins > 100000 {
					panic("consumer spun forever: flag write never became visible")
				}
			}
			for i := 0; i < 8; i++ {
				got[i] = e.Read(data + uint64(i*8))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint64(100+i) {
			t.Errorf("consumer read data[%d] = %d, want %d", i, v, 100+i)
		}
	}
}

// allWriteSameBlock: maximum write contention on one block; the gate
// must serialize every writer and the monitor must see exactly one
// owner at each completion.
func allWriteSameBlock(t *testing.T, factory Factory) {
	m := newMachine(t, factory, 8, false)
	addr := m.Alloc(8)
	const rounds = 30
	_, err := proc.Run(m, func(e proc.Env) {
		for i := 0; i < rounds; i++ {
			e.Write(addr, uint64(e.ID()*1000+i))
			e.Read(addr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ctr.WriteMisses == 0 {
		t.Error("contended writes produced no write misses")
	}
}

// fetchAddCounter: contended atomic fetch-adds must lose no updates and
// return a permutation of old values under every engine.
func fetchAddCounter(t *testing.T, factory Factory) {
	m := newMachine(t, factory, 8, false)
	addr := m.Alloc(8)
	const perProc = 20
	_, err := proc.Run(m, func(e proc.Env) {
		for i := 0; i < perProc; i++ {
			e.FetchAdd(addr, 1)
			if i%3 == 0 {
				e.Read(addr) // mix in shared reads of the hot word
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Store.Value(m.BlockOf(addr)); got != 8*perProc {
		t.Errorf("fetch-add counter = %d, want %d (lost updates)", got, 8*perProc)
	}
}

// memLockCounter: ticket locks built from FetchAdd + spin reads push
// synchronization through the protocol itself.
func memLockCounter(t *testing.T, factory Factory) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	cfg.MemLocks = true
	cfg.MaxEvents = 50_000_000
	m, err := coherent.NewMachine(cfg, factory())
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	const perProc = 10
	_, err = proc.Run(m, func(e proc.Env) {
		for i := 0; i < perProc; i++ {
			e.Lock(0)
			e.Write(addr, e.Read(addr)+1)
			e.Unlock(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Store.Value(m.BlockOf(addr)); got != 8*perProc {
		t.Errorf("memory-locked counter = %d, want %d", got, 8*perProc)
	}
}

// writeBufferedMix runs a barrier-phased workload under the TSO-style
// write-buffer relaxation: each engine must tolerate one read and one
// write transaction in flight concurrently from the same node.
func writeBufferedMix(t *testing.T, factory Factory) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	cfg.WriteBuffer = 4
	cfg.MaxEvents = 50_000_000
	m, err := coherent.NewMachine(cfg, factory())
	if err != nil {
		t.Fatal(err)
	}
	base := m.Alloc(32 * 8)
	stale := 0
	_, err = proc.Run(m, func(e proc.Env) {
		for phase := 0; phase < 5; phase++ {
			lo, hi := e.ID()*4, e.ID()*4+4
			for b := lo; b < hi; b++ {
				e.Write(base+uint64(b*8), uint64(phase)<<32|uint64(b))
			}
			e.Barrier()
			for b := 0; b < 32; b++ {
				if e.Read(base+uint64(b*8)) != uint64(phase)<<32|uint64(b) {
					stale++
				}
			}
			e.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if stale != 0 {
		t.Errorf("%d stale reads under write buffering", stale)
	}
}

// BenchmarkMix is a reusable micro-benchmark body for engines.
func BenchmarkMix(b *testing.B, factory Factory) {
	for i := 0; i < b.N; i++ {
		cfg := coherent.DefaultConfig(8)
		cfg.MaxEvents = 50_000_000
		m, err := coherent.NewMachine(cfg, factory())
		if err != nil {
			b.Fatal(err)
		}
		base := m.Alloc(64 * 8)
		if _, err := proc.Run(m, func(e proc.Env) {
			rng := rand.New(rand.NewSource(int64(e.ID())))
			for k := 0; k < 500; k++ {
				a := base + uint64(rng.Intn(64))*8
				if rng.Intn(4) == 0 {
					e.Write(a, uint64(k))
				} else {
					e.Read(a)
				}
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Refs issues references to one block of a machine, one at a time, each
// drained to completion: miss round trips in a fixed order, for
// allocation tests and benchmarks. It drives Machine.Access directly,
// with no processor model.
type Refs struct {
	tb    testing.TB
	m     *coherent.Machine
	addr  uint64
	value uint64
	done  func(uint64)
}

// NewRefs allocates a fresh block on m for the references to use.
func NewRefs(tb testing.TB, m *coherent.Machine) *Refs {
	return &Refs{tb: tb, m: m, addr: m.Alloc(8), done: func(uint64) {}}
}

// Block returns the block the references name.
func (r *Refs) Block() coherent.BlockID { return r.m.BlockOf(r.addr) }

// Read has node n read the block.
func (r *Refs) Read(n coherent.NodeID) { r.access(n, false) }

// Write has node n write a new value to the block.
func (r *Refs) Write(n coherent.NodeID) {
	r.value++
	r.access(n, true)
}

func (r *Refs) access(n coherent.NodeID, write bool) {
	r.m.Access(n, r.addr, write, r.value, r.done)
	if err := r.m.RunKernel(); err != nil {
		r.tb.Fatal(err)
	}
}

// Cycle returns one round of references: readers read the block in
// turn, then writer writes it. From the second round on every
// reference misses: the write invalidates every reader's copy, and the
// first read recalls the writer's.
func (r *Refs) Cycle(readers []coherent.NodeID, writer coherent.NodeID) func() {
	return func() {
		for _, n := range readers {
			r.Read(n)
		}
		r.Write(writer)
	}
}

// Nodes returns the node IDs lo, lo+1, ..., hi-1.
func Nodes(lo, hi int) []coherent.NodeID {
	out := make([]coherent.NodeID, 0, hi-lo)
	for n := lo; n < hi; n++ {
		out = append(out, coherent.NodeID(n))
	}
	return out
}
