package limited

import (
	"fmt"
	"testing"

	"dircc/internal/coherent"
	"dircc/internal/proc"
	"dircc/internal/protocol/fullmap"
	"dircc/internal/protocol/ptest"
)

func TestConformanceNB(t *testing.T) {
	for _, i := range []int{1, 2, 4, 8} {
		i := i
		t.Run(fmt.Sprintf("Dir%dNB", i), func(t *testing.T) {
			ptest.Conformance(t, func() coherent.Engine { return NewNB(i) })
		})
	}
}

func TestConformanceB(t *testing.T) {
	for _, i := range []int{1, 4} {
		i := i
		t.Run(fmt.Sprintf("Dir%dB", i), func(t *testing.T) {
			ptest.Conformance(t, func() coherent.Engine { return NewB(i) })
		})
	}
}

func TestConformance(t *testing.T) {
	for _, i := range []int{1, 4} {
		i := i
		t.Run(NewLimitLESS(i).Name(), func(t *testing.T) {
			ptest.Conformance(t, func() coherent.Engine { return NewLimitLESS(i) })
		})
	}
}

func TestNames(t *testing.T) {
	if NewNB(4).Name() != "Dir4NB" {
		t.Error("NB name wrong")
	}
	if NewB(2).Name() != "Dir2B" {
		t.Error("B name wrong")
	}
	if NewNB(3).Pointers() != 3 {
		t.Error("Pointers() wrong")
	}
}

func TestNameAndParams(t *testing.T) {
	e := NewLimitLESS(4)
	if e.Name() != "LimitLESS4" || e.Pointers() != 4 || e.TrapCycles() != DefaultTrapCycles {
		t.Fatalf("identity wrong: %s %d %d", e.Name(), e.Pointers(), e.TrapCycles())
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	for _, fn := range []func(){func() { NewLimitLESS(0) }, func() { NewLimitLESSWithTrap(4, 0) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad params did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestNewPanicsOnZeroPointers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewNB(0) did not panic")
		}
	}()
	NewNB(0)
}

// With i=2 and 4 sharers, Dir_iNB must evict pointers on overflow.
func TestNBPointerOverflowEvicts(t *testing.T) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, NewNB(2))
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		if e.ID() < 4 {
			// Serialize the four readers so overflow order is fixed.
			for turn := 0; turn < 4; turn++ {
				if turn == e.ID() {
					e.Read(addr)
				}
				e.Barrier()
			}
		} else {
			for turn := 0; turn < 4; turn++ {
				e.Barrier()
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if m.Ctr.PointerEvicts != 2 {
		t.Fatalf("pointer evictions = %d, want 2 (readers 3 and 4 overflow)", m.Ctr.PointerEvicts)
	}
	if m.Ctr.Invalidations != 2 {
		t.Fatalf("eviction invalidations = %d, want 2", m.Ctr.Invalidations)
	}
}

// Dir_iB write miss after overflow must broadcast to all n-1 others.
func TestBroadcastOnOverflow(t *testing.T) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, NewB(2))
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		if e.ID() < 4 {
			e.Read(addr) // 4 readers overflow 2 pointers -> broadcast bit
		}
		e.Barrier()
		if e.ID() == 7 {
			e.Write(addr, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if m.Ctr.Broadcasts != 1 {
		t.Fatalf("broadcast rounds = %d, want 1", m.Ctr.Broadcasts)
	}
	if m.Ctr.Invalidations != 7 {
		t.Fatalf("broadcast invalidations = %d, want 7 (all but the writer)", m.Ctr.Invalidations)
	}
}

// Without overflow, Dir_iB behaves exactly like a pointer scheme: only
// the recorded sharers receive invalidations.
func TestBNoOverflowTargetsPointersOnly(t *testing.T) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, NewB(4))
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		if e.ID() < 3 {
			e.Read(addr)
		}
		e.Barrier()
		if e.ID() == 7 {
			e.Write(addr, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if m.Ctr.Broadcasts != 0 {
		t.Fatalf("broadcasts = %d, want 0", m.Ctr.Broadcasts)
	}
	if m.Ctr.Invalidations != 3 {
		t.Fatalf("invalidations = %d, want 3", m.Ctr.Invalidations)
	}
}

func TestDirectoryBits(t *testing.T) {
	cfg := coherent.DefaultConfig(32)
	// B·i·n·log n = 100 * 4 * 32 * 5.
	if got, want := NewNB(4).DirectoryBits(cfg, 100), int64(100*4*32*5); got != want {
		t.Fatalf("DirectoryBits = %d, want %d", got, want)
	}
}

func TestDirectoryBitsHardwareOnly(t *testing.T) {
	cfg := coherent.DefaultConfig(32)
	// Same as Dir_4NB: only the hardware pointers.
	want := int64(100 * 4 * 32 * 5)
	if got := NewLimitLESS(4).DirectoryBits(cfg, 100); got != want {
		t.Fatalf("DirectoryBits = %d, want %d", got, want)
	}
}

// sharePattern builds `sharers` sequential readers then one writer and
// returns the machine.
func sharePattern(t *testing.T, eng coherent.Engine, procs, sharers int) *coherent.Machine {
	t.Helper()
	cfg := coherent.DefaultConfig(procs)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		for turn := 0; turn < sharers; turn++ {
			if turn == e.ID() {
				e.Read(addr)
			}
			e.Barrier()
		}
		if e.ID() == e.NProcs()-1 {
			e.Write(addr, 3)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// Unlike Dir_iNB, LimitLESS records every sharer: a write miss after 8
// readers must send 8 invalidations even with only 4 hardware pointers.
func TestAllSharersInvalidated(t *testing.T) {
	m := sharePattern(t, NewLimitLESS(4), 16, 8)
	if m.Ctr.Invalidations != 8 {
		t.Fatalf("invalidations = %d, want 8 (software pointers must be honored)", m.Ctr.Invalidations)
	}
	if m.Ctr.PointerEvicts != 4 {
		t.Fatalf("software spills = %d, want 4 (readers 5..8)", m.Ctr.PointerEvicts)
	}
	if m.Ctr.Broadcasts != 1 {
		t.Fatalf("software-assisted rounds = %d, want 1", m.Ctr.Broadcasts)
	}
}

// No overflow, no overflow cost: with sharers <= i every overflow
// policy must cost exactly what full-map costs — no trap, eviction or
// broadcast, and no extra message or cycle on the handlers the three
// policies share.
func TestNoOverflowMatchesFullMap(t *testing.T) {
	fm := sharePattern(t, fullmap.New(), 8, 3)
	for _, i := range []int{3, 4} {
		for _, eng := range []*Engine{NewNB(i), NewB(i), NewLimitLESS(i)} {
			t.Run(eng.Name(), func(t *testing.T) {
				m := sharePattern(t, eng, 8, 3)
				if m.Ctr.Messages != fm.Ctr.Messages {
					t.Fatalf("messages %d vs full-map %d", m.Ctr.Messages, fm.Ctr.Messages)
				}
				if m.Ctr.Cycles != fm.Ctr.Cycles {
					t.Fatalf("cycles %d vs full-map %d (overflow cost charged without overflow?)", m.Ctr.Cycles, fm.Ctr.Cycles)
				}
				if m.Ctr.PointerEvicts != 0 || m.Ctr.Broadcasts != 0 {
					t.Fatalf("overflow counted without overflow: %d pointer evictions, %d broadcasts",
						m.Ctr.PointerEvicts, m.Ctr.Broadcasts)
				}
			})
		}
	}
}

// With overflow, the software handler delay must make LimitLESS slower
// than full-map on the same pattern (the paper's Table 1 penalty).
func TestTrapDelaySlowsOverflow(t *testing.T) {
	ll := sharePattern(t, NewLimitLESS(4), 16, 12)
	fm := sharePattern(t, fullmap.New(), 16, 12)
	if ll.Ctr.Messages != fm.Ctr.Messages {
		t.Fatalf("message counts should match full-map: %d vs %d", ll.Ctr.Messages, fm.Ctr.Messages)
	}
	if ll.Ctr.Cycles <= fm.Ctr.Cycles {
		t.Fatalf("LimitLESS (%d cycles) not slower than full-map (%d) despite 8 traps",
			ll.Ctr.Cycles, fm.Ctr.Cycles)
	}
}

// A larger trap cost must hurt more.
func TestTrapCostMonotone(t *testing.T) {
	cheap := sharePattern(t, NewLimitLESSWithTrap(2, 10), 16, 10)
	dear := sharePattern(t, NewLimitLESSWithTrap(2, 500), 16, 10)
	if dear.Ctr.Cycles <= cheap.Ctr.Cycles {
		t.Fatalf("500-cycle traps (%d) not slower than 10-cycle traps (%d)",
			dear.Ctr.Cycles, cheap.Ctr.Cycles)
	}
}

func BenchmarkDir4NBMix(b *testing.B) {
	ptest.BenchmarkMix(b, func() coherent.Engine { return NewNB(4) })
}

func BenchmarkLimitLESS4Mix(b *testing.B) {
	ptest.BenchmarkMix(b, func() coherent.Engine { return NewLimitLESS(4) })
}
