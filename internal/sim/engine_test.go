package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueEngineUsable(t *testing.T) {
	var e Engine
	ran := false
	e.Schedule(5, func() { ran = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event did not fire")
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %d, want 5", e.Now())
	}
}

func TestFIFOWithinSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(3, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestTimestampOrdering(t *testing.T) {
	e := NewEngine()
	var times []Time
	delays := []Time{9, 1, 7, 3, 5, 0, 8, 2, 6, 4}
	for _, d := range delays {
		e.Schedule(d, func() { times = append(times, e.Now()) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Fatalf("events fired out of time order: %v", times)
	}
	if len(times) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(times), len(delays))
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Schedule(1, func() {
		trace = append(trace, e.Now())
		e.Schedule(2, func() {
			trace = append(trace, e.Now())
			e.Schedule(0, func() { trace = append(trace, e.Now()) })
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{1, 3, 3}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestZeroDelayRunsAfterCurrentInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(0, func() {
		order = append(order, "a")
		e.Schedule(0, func() { order = append(order, "c") })
	})
	e.Schedule(0, func() { order = append(order, "b") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("order = %q, want abc", got)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(1, func() { fired++; e.Stop() })
	e.Schedule(2, func() { fired++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Stop should halt the loop)", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{1, 5, 10, 15} {
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	n, err := e.RunUntil(10)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	// Resume to drain.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 15 {
		t.Fatalf("Now() = %d, want 15", e.Now())
	}
}

func TestRunUntilAdvancesClockWithNoEvents(t *testing.T) {
	e := NewEngine()
	if _, err := e.RunUntil(42); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 42 {
		t.Fatalf("Now() = %d, want 42", e.Now())
	}
}

func TestEventBudget(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 10
	var tick func()
	tick = func() { e.Schedule(1, tick) }
	e.Schedule(1, tick)
	if err := e.Run(); err != ErrEventBudget {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
}

func TestAtPanicsOnPast(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulePanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Schedule(nil) did not panic")
		}
	}()
	NewEngine().Schedule(0, nil)
}

// Property: for any random batch of delays, events fire in
// nondecreasing time order and every event fires exactly once.
func TestQuickOrdering(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int(nSmall%200) + 1
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		for i := 0; i < n; i++ {
			e.Schedule(Time(rng.Intn(50)), func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != n {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — two engines fed the same schedule produce the
// same firing sequence, including nested scheduling.
func TestQuickDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []Time
		var recurse func(depth int)
		recurse = func(depth int) {
			fired = append(fired, e.Now())
			if depth > 0 && rng.Intn(2) == 0 {
				e.Schedule(Time(rng.Intn(7)), func() { recurse(depth - 1) })
			}
		}
		for i := 0; i < 50; i++ {
			e.Schedule(Time(rng.Intn(20)), func() { recurse(3) })
		}
		if err := e.Run(); err != nil {
			return nil
		}
		return fired
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 100
	for _, d := range []Time{1, 5, 10} {
		e.Schedule(d, func() {})
	}
	if _, err := e.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Executed() != 0 || e.MaxEvents != 100 {
		t.Fatalf("after Reset: now %d, pending %d, executed %d, budget %d",
			e.Now(), e.Pending(), e.Executed(), e.MaxEvents)
	}
	// Sequence numbers restart too: same-instant events keep FIFO order.
	var order []int
	for i := 0; i < 3; i++ {
		e.Schedule(2, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 2 || e.Executed() != 3 || !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("after Reset ran to %d, %d events, order %v", e.Now(), e.Executed(), order)
	}
}
