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
	e.Schedule(5, Func(func() { ran = true }))
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

// orderRec is a typed handler that appends its index to a shared
// order when it fires.
type orderRec struct {
	order *[]int
	i     int
}

func (r *orderRec) Fire() { *r.order = append(*r.order, r.i) }

// TestFIFOWithinSameInstant schedules typed handlers and Func closures,
// interleaved, for one instant: they must fire in schedule order.
func TestFIFOWithinSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if i%3 == 0 {
			e.Schedule(3, &orderRec{order: &order, i: i})
			continue
		}
		e.Schedule(3, Func(func() { order = append(order, i) }))
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
		e.Schedule(d, Func(func() { times = append(times, e.Now()) }))
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
	e.Schedule(1, Func(func() {
		trace = append(trace, e.Now())
		e.Schedule(2, Func(func() {
			trace = append(trace, e.Now())
			e.Schedule(0, Func(func() { trace = append(trace, e.Now()) }))
		}))
	}))
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
	e.Schedule(0, Func(func() {
		order = append(order, "a")
		e.Schedule(0, Func(func() { order = append(order, "c") }))
	}))
	e.Schedule(0, Func(func() { order = append(order, "b") }))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("order = %q, want abc", got)
	}
}

func TestEventBudget(t *testing.T) {
	e := NewEngine()
	e.MaxEvents = 10
	var tick func()
	tick = func() { e.Schedule(1, Func(tick)) }
	e.Schedule(1, Func(tick))
	if err := e.Run(); err != ErrEventBudget {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
}

func TestAtPanicsOnPast(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(5, Func(func() {}))
	}))
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
			e.Schedule(Time(rng.Intn(50)), Func(func() { fired = append(fired, e.Now()) }))
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
				e.Schedule(Time(rng.Intn(7)), Func(func() { recurse(depth - 1) }))
			}
		}
		for i := 0; i < 50; i++ {
			e.Schedule(Time(rng.Intn(20)), Func(func() { recurse(3) }))
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
	e.MaxEvents = 3
	for _, d := range []Time{1, 5, 10, 15, 20} {
		e.Schedule(d, Func(func() {}))
	}
	if err := e.Run(); err != ErrEventBudget {
		t.Fatalf("Run = %v, want the event budget to stop it", err)
	}
	if e.Pending() == 0 {
		t.Fatal("the interrupted run left nothing behind to reset")
	}
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Executed() != 0 || e.MaxEvents != 3 {
		t.Fatalf("after Reset: now %d, pending %d, executed %d, budget %d",
			e.Now(), e.Pending(), e.Executed(), e.MaxEvents)
	}
	// Sequence numbers restart too: same-instant events keep FIFO order.
	var order []int
	for i := 0; i < 3; i++ {
		e.Schedule(2, Func(func() { order = append(order, i) }))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 2 || e.Executed() != 3 || !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("after Reset ran to %d, %d events, order %v", e.Now(), e.Executed(), order)
	}
}
