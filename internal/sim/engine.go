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
// The queue is an inlined binary min-heap over a flat []event rather
// than container/heap: the standard library's interface-typed
// Push/Pop box every event into an `any`, which puts one heap
// allocation on the hot path of every Schedule. The inlined heap keeps
// events in place, reuses the slice's capacity across the run, and
// preserves the exact (at, seq) total order — the pop sequence is
// identical to container/heap's, so simulated results are bit-for-bit
// unchanged.
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

// event is a handler scheduled to fire at a simulated instant.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events at the same instant
	h   Handler
}

// before reports whether a fires before b: earlier timestamp, with the
// unique sequence number breaking ties FIFO. This is a strict total
// order, so the heap's pop sequence is fully determined by the set of
// scheduled events regardless of internal sift order.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap over a flat event slice with the
// sift loops inlined (no interface dispatch, no boxing).
type eventQueue []event

// push appends ev and restores the heap invariant. Both sifts move a
// hole rather than swapping: each level copies one event, not two.
//
//dirccvet:hotpath
func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	// Sift up.
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the queue does not retain the popped handler (and whatever
// it references) beyond its firing.
//
//dirccvet:hotpath
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	last := len(h) - 1
	x := h[last]
	h[last] = event{}
	h = h[:last]
	*q = h
	if last == 0 {
		return top
	}
	// Sift x down from the root.
	i := 0
	for {
		left := 2*i + 1
		if left >= last {
			break
		}
		min := left
		if right := left + 1; right < last && h[right].before(h[left]) {
			min = right
		}
		if !h[min].before(x) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = x
	return top
}

// Engine is a deterministic discrete-event scheduler.
// The zero value is ready to use.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	stopped bool

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
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule fires h after delay cycles. A zero delay fires h after all
// events already scheduled for the current instant.
func (e *Engine) Schedule(delay Time, h Handler) {
	if h == nil {
		panic("sim: Schedule called with nil handler")
	}
	e.seq++
	e.queue.push(event{at: e.now + delay, seq: e.seq, h: h})
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
// the queue's capacity. Pending events are dropped unfired.
func (e *Engine) Reset() {
	clear(e.queue)
	*e = Engine{queue: e.queue[:0], MaxEvents: e.MaxEvents, tick: e.tick}
}

// Stop makes Run return after the currently firing event completes.
func (e *Engine) Stop() { e.stopped = true }

// SetTick installs (or, with nil, removes) the per-event observer,
// the sequential counterpart of Sharded.SetTick.
func (e *Engine) SetTick(fn func(Time)) { e.tick = fn }

// Run fires events in timestamp order until the queue drains, Stop is
// called, or the event budget is exhausted.
//
//dirccvet:hotpath
func (e *Engine) Run() error {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
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

// RunUntil fires events with timestamp <= deadline and then stops,
// leaving later events queued. It returns the number of events fired.
//
//dirccvet:hotpath
func (e *Engine) RunUntil(deadline Time) (fired uint64, err error) {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > deadline {
			break
		}
		ev := e.queue.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.executed++
		fired++
		if e.MaxEvents != 0 && e.executed > e.MaxEvents {
			return fired, ErrEventBudget
		}
		if e.tick != nil {
			e.tick(e.now)
		}
		ev.h.Fire()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return fired, nil
}
