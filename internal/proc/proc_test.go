package proc

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"dircc/internal/coherent"
	"dircc/internal/protocol/fullmap"
	"dircc/internal/sim"
)

func newMachine(t *testing.T, procs int) *coherent.Machine {
	t.Helper()
	cfg := coherent.DefaultConfig(procs)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, fullmap.New())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goroutinesBack records the goroutine count and returns a check that
// fails t unless the count is back to it: Run must end every body it
// started, whichever way it returns.
func goroutinesBack(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("%d goroutines after Run, %d before", n, before)
		}
	}
}

func TestIDAndNProcs(t *testing.T) {
	m := newMachine(t, 4)
	seen := make([]bool, 4)
	if _, err := Run(m, func(e Env) {
		if e.NProcs() != 4 {
			panic("NProcs wrong")
		}
		seen[e.ID()] = true
	}); err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("processor %d never ran", i)
		}
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	m := newMachine(t, 1)
	var before, after sim.Time
	if _, err := Run(m, func(e Env) {
		before = e.Now()
		e.Compute(123)
		after = e.Now()
	}); err != nil {
		t.Fatal(err)
	}
	if after-before != 123 {
		t.Fatalf("Compute advanced %d cycles, want 123", after-before)
	}
	if m.Ctr.ComputeCycles != 123 {
		t.Fatalf("ComputeCycles = %d", m.Ctr.ComputeCycles)
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	m := newMachine(t, 1)
	if _, err := Run(m, func(e Env) {
		t0 := e.Now()
		e.Compute(0)
		if e.Now() != t0 {
			panic("Compute(0) advanced time")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierRendezvous(t *testing.T) {
	m := newMachine(t, 8)
	var phase [8]int
	bad := int32(0)
	if _, err := Run(m, func(e Env) {
		e.Compute(uint64(e.ID()) * 50) // arrive at staggered times
		phase[e.ID()] = 1
		e.Barrier()
		for _, p := range phase {
			if p != 1 {
				atomic.StoreInt32(&bad, 1)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatal("a processor passed the barrier before all arrived")
	}
	if m.Ctr.BarrierEpochs != 1 {
		t.Fatalf("BarrierEpochs = %d, want 1", m.Ctr.BarrierEpochs)
	}
}

func TestBarrierManyEpochs(t *testing.T) {
	m := newMachine(t, 4)
	if _, err := Run(m, func(e Env) {
		for i := 0; i < 10; i++ {
			e.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if m.Ctr.BarrierEpochs != 10 {
		t.Fatalf("BarrierEpochs = %d, want 10", m.Ctr.BarrierEpochs)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	m := newMachine(t, 8)
	inside := 0
	maxInside := 0
	if _, err := Run(m, func(e Env) {
		for i := 0; i < 5; i++ {
			e.Lock(3)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			e.Compute(7)
			inside--
			e.Unlock(3)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("%d processors inside the critical section", maxInside)
	}
	if m.Ctr.LockAcquires != 40 {
		t.Fatalf("LockAcquires = %d, want 40", m.Ctr.LockAcquires)
	}
}

func TestLockFIFO(t *testing.T) {
	m := newMachine(t, 4)
	var order []int
	if _, err := Run(m, func(e Env) {
		// Stagger arrivals so the queue order is the ID order.
		e.Compute(uint64(e.ID())*100 + 1)
		e.Lock(0)
		order = append(order, e.ID())
		e.Compute(500) // hold long enough that all others queue
		e.Unlock(0)
	}); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("lock grant order %v not FIFO", order)
		}
	}
}

// TestLockUnlockAllocs: the lock and unlock ops a processor hands to
// GlobalOpAt are built once, in Run, so a lock and unlock pair allocates
// nothing. A body taking and releasing a lock 2,000 times allocates
// fewer than 100 objects more than one doing it 1,000 times; closures
// built per request would cost two per pair.
func TestLockUnlockAllocs(t *testing.T) {
	run := func(pairs int) float64 {
		return testing.AllocsPerRun(3, func() {
			m := newMachine(t, 2)
			if _, err := Run(m, func(e Env) {
				for range pairs {
					e.Lock(e.ID())
					e.Unlock(e.ID())
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if d := run(2000) - run(1000); d >= 100 {
		t.Fatalf("1,000 more lock/unlock pairs allocate %.0f more objects, want fewer than 100", d)
	}
}

// TestContendedLockAllocs: four processors take turns on one lock, so
// every release hands it to a queued waiter. The queue keeps its backing
// array across handoffs, so 1,000 more rounds per processor allocate
// fewer than 10 more objects; a queue that drops its front slot on every
// pop regrows every few handoffs.
func TestContendedLockAllocs(t *testing.T) {
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(3, func() {
			m := newMachine(t, 4)
			if _, err := Run(m, func(e Env) {
				for range rounds {
					e.Lock(0)
					e.Compute(5)
					e.Unlock(0)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if m.Ctr.LockAcquires != uint64(4*rounds) {
				t.Fatalf("LockAcquires = %d, want %d", m.Ctr.LockAcquires, 4*rounds)
			}
		})
	}
	if d := run(2000) - run(1000); d >= 10 {
		t.Fatalf("1,000 more contended rounds allocate %.0f more objects, want fewer than 10", d)
	}
}

func TestDistinctLocksIndependent(t *testing.T) {
	m := newMachine(t, 2)
	if _, err := Run(m, func(e Env) {
		e.Lock(e.ID()) // different locks: no interaction
		e.Compute(10)
		e.Unlock(e.ID())
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEnvCallAllocs: an Env call hands its request to the simulator and
// takes the answer back without allocating, so 1,000 more Compute calls
// allocate fewer than 10 more objects.
func TestEnvCallAllocs(t *testing.T) {
	run := func(calls int) float64 {
		return testing.AllocsPerRun(3, func() {
			m := newMachine(t, 2)
			if _, err := Run(m, func(e Env) {
				for range calls / 2 {
					e.Compute(1)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if d := run(2000) - run(1000); d >= 10 {
		t.Fatalf("1,000 more Compute calls allocate %.0f more objects, want fewer than 10", d)
	}
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	m := newMachine(t, 1)
	check := goroutinesBack(t)
	defer func() {
		if recover() == nil {
			t.Error("unlock of free lock did not panic")
		}
		check()
	}()
	_, _ = Run(m, func(e Env) { e.Unlock(9) })
}

func TestBarrierImbalanceDetected(t *testing.T) {
	m := newMachine(t, 2)
	check := goroutinesBack(t)
	defer func() {
		if r := recover(); r == nil {
			t.Error("exiting past a waiting barrier should panic")
		} else if !strings.Contains(r.(string), "barrier") {
			t.Errorf("unexpected panic %v", r)
		}
		check()
	}()
	_, _ = Run(m, func(e Env) {
		if e.ID() == 0 {
			e.Barrier() // partner never arrives
		}
	})
}

func TestLockDeadlockDetected(t *testing.T) {
	m := newMachine(t, 2)
	_, err := Run(m, func(e Env) {
		// Classic AB/BA deadlock.
		first, second := 0, 1
		if e.ID() == 1 {
			first, second = 1, 0
		}
		e.Lock(first)
		e.Compute(100)
		e.Lock(second)
		e.Unlock(second)
		e.Unlock(first)
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not reported: %v", err)
	}
}

// TestDeadlockEndsStuckBodies: after a deadlock, Run ends the bodies
// that never finished instead of answering their requests with zeros,
// under which this body would spin on its flag for ever.
func TestDeadlockEndsStuckBodies(t *testing.T) {
	m := newMachine(t, 2)
	flag := m.Alloc(8)
	check := goroutinesBack(t)
	_, err := Run(m, func(e Env) {
		e.Lock(0)
		e.Lock(0) // queues behind itself
		for e.Read(flag) == 0 {
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not reported: %v", err)
	}
	check()
}

// TestEventBudgetEndsBodies: when the kernel stops on its event budget,
// Run returns the error and ends the bodies in the middle of their
// loops.
func TestEventBudgetEndsBodies(t *testing.T) {
	cfg := coherent.DefaultConfig(2)
	cfg.MaxEvents = 100
	m, err := coherent.NewMachine(cfg, fullmap.New())
	if err != nil {
		t.Fatal(err)
	}
	check := goroutinesBack(t)
	if _, err := Run(m, func(e Env) {
		for {
			e.Compute(1)
		}
	}); !errors.Is(err, sim.ErrEventBudget) {
		t.Fatalf("Run returned %v, want the event budget error", err)
	}
	check()
}

// TestBodyPanicReachesCaller: a panic in application code comes out of
// Run with its own value, and the other processors' bodies are ended.
// On a machine with two shards of the parallel kernel the body runs on
// a worker lane's goroutine, and the kernel hands the panic over.
func TestBodyPanicReachesCaller(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := newMachine(t, 4)
			if shards > 1 {
				var err error
				if m, err = coherent.NewShardedMachine(coherent.DefaultConfig(4), fullmap.New(), shards); err != nil {
					t.Fatal(err)
				}
			}
			check := goroutinesBack(t)
			defer func() {
				r := recover()
				if err, ok := r.(runtime.Error); !ok || !strings.Contains(err.Error(), "index out of range") {
					t.Errorf("recovered %v, want processor 1's index error", r)
				}
				check()
			}()
			var table []int
			_, _ = Run(m, func(e Env) {
				e.Compute(10)
				if e.ID() == 1 {
					_ = table[e.ID()]
				}
				e.Barrier()
			})
			t.Error("Run returned")
		})
	}
}

func TestMemoryThroughEnv(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.Alloc(8)
	sum := uint64(0)
	if _, err := Run(m, func(e Env) {
		if e.ID() == 0 {
			e.Write(addr, 5)
		}
		e.Barrier()
		v := e.Read(addr)
		if e.ID() == 2 {
			sum = v
		}
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 5 {
		t.Fatalf("read %d, want 5", sum)
	}
}

func TestNowMonotone(t *testing.T) {
	m := newMachine(t, 2)
	ok := true
	if _, err := Run(m, func(e Env) {
		prev := e.Now()
		for i := 0; i < 20; i++ {
			e.Compute(3)
			e.Barrier()
			if now := e.Now(); now < prev {
				ok = false
			} else {
				prev = now
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Now() went backwards")
	}
}

func TestRunReturnsTotalCycles(t *testing.T) {
	m := newMachine(t, 2)
	cycles, err := Run(m, func(e Env) { e.Compute(1000) })
	if err != nil {
		t.Fatal(err)
	}
	if cycles < 1000 {
		t.Fatalf("Run returned %d cycles, want >= 1000", cycles)
	}
}

func TestFetchAddAtomic(t *testing.T) {
	m := newMachine(t, 8)
	addr := m.Alloc(8)
	const perProc = 25
	olds := make(map[uint64]int)
	if _, err := Run(m, func(e Env) {
		for i := 0; i < perProc; i++ {
			old := e.FetchAdd(addr, 1)
			_ = old
		}
		e.Barrier()
		if e.ID() == 0 {
			final := e.Read(addr)
			if final != 8*perProc {
				panic("fetch-add lost updates")
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	_ = olds
	if got := m.Store.Value(m.BlockOf(addr)); got != 8*perProc {
		t.Fatalf("counter = %d, want %d", got, 8*perProc)
	}
}

func TestFetchAddReturnsDistinctOlds(t *testing.T) {
	m := newMachine(t, 8)
	addr := m.Alloc(8)
	seen := make([]uint64, 0, 8)
	if _, err := Run(m, func(e Env) {
		old := e.FetchAdd(addr, 1)
		e.Lock(5)
		seen = append(seen, old)
		e.Unlock(5)
	}); err != nil {
		t.Fatal(err)
	}
	marks := map[uint64]bool{}
	for _, o := range seen {
		if o >= 8 || marks[o] {
			t.Fatalf("fetch-add old values not a permutation of 0..7: %v", seen)
		}
		marks[o] = true
	}
}

func TestMemLocksMutualExclusion(t *testing.T) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	cfg.MemLocks = true
	m, err := coherent.NewMachine(cfg, fullmap.New())
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	inside, maxInside := 0, 0
	if _, err := Run(m, func(e Env) {
		for i := 0; i < 5; i++ {
			e.Lock(3)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			e.Write(addr, e.Read(addr)+1)
			inside--
			e.Unlock(3)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("%d processors inside the memory-lock critical section", maxInside)
	}
	if got := m.Store.Value(m.BlockOf(addr)); got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
	if m.Ctr.LockAcquires != 40 {
		t.Fatalf("LockAcquires = %d, want 40", m.Ctr.LockAcquires)
	}
}

// Ticket locks through the protocol must generate real coherence
// traffic on the lock words — the traffic the engine-level model hides.
func TestMemLocksGenerateTraffic(t *testing.T) {
	run := func(mem bool) uint64 {
		cfg := coherent.DefaultConfig(8)
		cfg.MemLocks = mem
		m, err := coherent.NewMachine(cfg, fullmap.New())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(m, func(e Env) {
			for i := 0; i < 10; i++ {
				e.Lock(0)
				e.Compute(5)
				e.Unlock(0)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return m.Ctr.Messages
	}
	engineLevel, memLevel := run(false), run(true)
	if memLevel <= engineLevel {
		t.Fatalf("memory locks produced %d messages, engine-level %d", memLevel, engineLevel)
	}
}

func TestMemLocksFairness(t *testing.T) {
	// Ticket locks are FIFO by construction: with staggered arrivals the
	// grant order must follow ticket order.
	cfg := coherent.DefaultConfig(4)
	cfg.MemLocks = true
	m, err := coherent.NewMachine(cfg, fullmap.New())
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	if _, err := Run(m, func(e Env) {
		e.Compute(uint64(e.ID())*500 + 1)
		e.Lock(0)
		order = append(order, e.ID())
		e.Compute(2000)
		e.Unlock(0)
	}); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("ticket lock grant order %v not FIFO", order)
		}
	}
}

func wbMachine(t *testing.T, procs, depth int) *coherent.Machine {
	t.Helper()
	cfg := coherent.DefaultConfig(procs)
	cfg.Check = true
	cfg.WriteBuffer = depth
	m, err := coherent.NewMachine(cfg, fullmap.New())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteBufferForwarding(t *testing.T) {
	m := wbMachine(t, 2, 4)
	addr := m.Alloc(8)
	var got uint64
	if _, err := Run(m, func(e Env) {
		if e.ID() == 0 {
			e.Write(addr, 99)
			got = e.Read(addr) // must forward from the buffer
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("forwarded read = %d, want 99", got)
	}
}

func TestWriteBufferDRFResultsMatch(t *testing.T) {
	// A barrier-synchronized (data-race-free) program must compute the
	// same result under the relaxed model.
	run := func(depth int) []uint64 {
		cfg := coherent.DefaultConfig(8)
		cfg.Check = true
		cfg.WriteBuffer = depth
		m, err := coherent.NewMachine(cfg, fullmap.New())
		if err != nil {
			t.Fatal(err)
		}
		base := m.Alloc(32 * 8)
		if _, err := Run(m, func(e Env) {
			for phase := 0; phase < 4; phase++ {
				lo, hi := e.ID()*4, e.ID()*4+4
				for b := lo; b < hi; b++ {
					e.Write(base+uint64(b*8), uint64(phase*100+b))
				}
				e.Barrier()
				for b := 0; b < 32; b++ {
					e.Read(base + uint64(b*8))
				}
				e.Barrier()
			}
		}); err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, 32)
		for b := 0; b < 32; b++ {
			out[b] = m.Store.Value(m.BlockOf(base + uint64(b*8)))
		}
		return out
	}
	sc, tso := run(0), run(8)
	for i := range sc {
		if sc[i] != tso[i] {
			t.Fatalf("block %d differs: SC %d vs write-buffered %d", i, sc[i], tso[i])
		}
	}
}

func TestWriteBufferHidesWriteLatency(t *testing.T) {
	run := func(depth int) uint64 {
		cfg := coherent.DefaultConfig(8)
		cfg.WriteBuffer = depth
		m, err := coherent.NewMachine(cfg, fullmap.New())
		if err != nil {
			t.Fatal(err)
		}
		base := m.Alloc(64 * 8 * 8)
		cycles, err := Run(m, func(e Env) {
			// Each processor alternates stores with local computation;
			// buffering overlaps the two, blocking writes serialize.
			for i := 0; i < 64; i++ {
				e.Write(base+uint64((e.ID()*64+i)*8), uint64(i))
				e.Compute(50)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return uint64(cycles)
	}
	sc, tso := run(0), run(8)
	if tso >= sc {
		t.Fatalf("write buffering (%d cycles) not faster than blocking writes (%d)", tso, sc)
	}
}

func TestWriteBufferLockedCounter(t *testing.T) {
	m := wbMachine(t, 8, 4)
	addr := m.Alloc(8)
	if _, err := Run(m, func(e Env) {
		for i := 0; i < 10; i++ {
			e.Lock(0)
			e.Write(addr, e.Read(addr)+1)
			e.Unlock(0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Store.Value(m.BlockOf(addr)); got != 80 {
		t.Fatalf("locked counter = %d, want 80 (fences must drain the buffer)", got)
	}
}

func TestWriteBufferFetchAddFence(t *testing.T) {
	m := wbMachine(t, 8, 4)
	data := m.Alloc(8)
	flag := m.Alloc(8)
	bad := 0
	if _, err := Run(m, func(e Env) {
		if e.ID() == 0 {
			e.Write(data, 1234)
			e.FetchAdd(flag, 1) // fence: data must be visible before the flag bump
		} else {
			spins := 0
			for e.Read(flag) == 0 {
				e.Compute(20)
				if spins++; spins > 100000 {
					panic("flag never set")
				}
			}
			if e.Read(data) != 1234 {
				bad++
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d consumers saw the flag before the fenced data", bad)
	}
}

func TestWriteBufferFullStalls(t *testing.T) {
	// Depth 1 with a burst of writes must still complete (stall path).
	m := wbMachine(t, 2, 1)
	base := m.Alloc(32 * 8)
	if _, err := Run(m, func(e Env) {
		for i := 0; i < 32; i++ {
			e.Write(base+uint64(i*8), uint64(i))
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if got := m.Store.Value(m.BlockOf(base + uint64(i*8))); got != uint64(i) {
			t.Fatalf("block %d = %d after drain, want %d", i, got, i)
		}
	}
}

func TestWriteBufferSameBlockReadWaits(t *testing.T) {
	// With 16-byte blocks, a read of word B while a buffered write to
	// word A of the same block is pending must wait for the write to
	// drain rather than launching a second transaction on the block.
	// (Block contents are modeled as one 64-bit value, so the read then
	// observes the drained write — exact at the paper's 8-byte blocks.)
	cfg := coherent.DefaultConfig(2)
	cfg.BlockBytes = 16
	cfg.Check = true
	cfg.WriteBuffer = 4
	m, err := coherent.NewMachine(cfg, fullmap.New())
	if err != nil {
		t.Fatal(err)
	}
	base := m.Alloc(16)
	var got uint64
	if _, err := Run(m, func(e Env) {
		if e.ID() == 0 {
			e.Write(base, 7)       // word A
			got = e.Read(base + 8) // word B, same block: waits for drain
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("read = %d, want the block value 7 after the forced drain", got)
	}
}

func TestWriteBufferDeterministic(t *testing.T) {
	run := func() uint64 {
		cfg := coherent.DefaultConfig(4)
		cfg.WriteBuffer = 4
		m, err := coherent.NewMachine(cfg, fullmap.New())
		if err != nil {
			t.Fatal(err)
		}
		base := m.Alloc(64 * 8)
		cycles, err := Run(m, func(e Env) {
			for i := 0; i < 100; i++ {
				a := base + uint64(((e.ID()*31+i*7)%64)*8)
				if i%3 == 0 {
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
		t.Fatalf("write-buffered runs diverge: %d vs %d cycles", a, b)
	}
}
