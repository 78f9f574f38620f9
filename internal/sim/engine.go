// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is a single-threaded priority queue of timestamped events.
// Events scheduled for the same instant fire in the order they were
// scheduled (FIFO), which makes every simulation in this repository
// bit-for-bit reproducible: the same configuration and seed always
// produce the same event interleaving and therefore the same cycle
// counts and statistics.
//
// An event's work is a Handler: the kernel queues the handler value
// itself and calls its Fire method at the event's instant. A record
// that already exists and outlives its event — a coherence message, a
// transaction — implements Fire and is scheduled as it is, so firing it
// costs no allocation. Func adapts a closure; building the closure is
// the caller's allocation, not the kernel's.
//
// The queue is a calendar queue of one-cycle buckets over a 1,024-cycle
// horizon, with a binary heap holding the rare event beyond it (see
// calendar.go). Scheduling and popping cost O(1) and allocate nothing
// once the node pool has grown to the run's peak of pending events, and
// the pop sequence is exactly the (at, seq) order a binary min-heap
// gives — the property tests check it against container/heap — so no
// simulated result depends on the queue's layout.
package sim

import "fmt"

// Time is a simulated clock value in cycles.
type Time uint64

// Handler is the work of one event. Fire runs at the event's instant;
// it may schedule further events.
type Handler interface {
	Fire()
}

// Func adapts a closure to Handler.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Engine is a deterministic discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	now   Time
	seq   uint64
	queue calendar

	// Executed counts events that have fired; useful for budget limits
	// and for detecting livelock in tests.
	executed uint64
	// MaxEvents, when non-zero, aborts Run with ErrEventBudget after
	// that many events have fired.
	MaxEvents uint64

	// tick, when non-nil, observes the clock before every fired event.
	// It must not schedule events or mutate engine state; the
	// observability layer uses it to drive lazy samplers and stall
	// checks without perturbing the timeline. The hot path pays one
	// nil check when disabled (see BenchmarkEngineScheduleRun).
	tick func(Time)
}

// ErrEventBudget is returned by Run when Engine.MaxEvents is exceeded.
var ErrEventBudget = fmt.Errorf("sim: event budget exceeded")

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events that have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queue.len() }

// Schedule fires h after delay cycles. A zero delay fires h after all
// events already scheduled for the current instant.
func (e *Engine) Schedule(delay Time, h Handler) {
	if h == nil {
		panic("sim: Schedule called with nil handler")
	}
	e.seq++
	e.queue.push(e.now+delay, e.seq, h)
}

// At fires h at the absolute instant t. Scheduling in the past panics:
// it indicates a protocol bug, not a recoverable condition.
func (e *Engine) At(t Time, h Handler) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%d) is in the past (now=%d)", t, e.now))
	}
	e.Schedule(t-e.now, h)
}

// Reset returns the engine to time zero with an empty queue and no
// events fired, as NewEngine leaves it, keeping MaxEvents, the tick and
// the queue's storage. Pending events are dropped unfired. The fields
// are reset one by one: a struct assignment would clear the calendar's
// bucket arrays, which an empty calendar does not need.
func (e *Engine) Reset() {
	e.now, e.seq, e.executed = 0, 0, 0
	e.queue.reset()
}

// SetTick installs (or, with nil, removes) the per-event observer,
// which runs before every event with the instant it fires at.
func (e *Engine) SetTick(fn func(Time)) { e.tick = fn }

// Run fires events in timestamp order until the queue drains or the
// event budget is exhausted.
//
//dirccvet:hotpath
func (e *Engine) Run() error {
	for e.queue.len() > 0 {
		ev := e.queue.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.executed++
		if e.MaxEvents != 0 && e.executed > e.MaxEvents {
			return ErrEventBudget
		}
		if e.tick != nil {
			e.tick(e.now)
		}
		ev.h.Fire()
	}
	return nil
}
