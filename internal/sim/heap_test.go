package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

// refHeap is the seed implementation: the same (at, seq) ordering
// driven through container/heap. The property tests below use it as an
// independent oracle for the inlined eventQueue.
type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// seqTag is a typed handler that records the sequence number it was
// queued with.
type seqTag uint64

func (*seqTag) Fire() {}

// TestHeapMatchesContainerHeap drives the inlined heap and
// container/heap with an identical random interleaving of pushes and
// pops — 10k scheduled (at, seq) events with heavy timestamp collisions
// — and requires bit-identical pop sequences. This is the guarantee
// that swapping out container/heap cannot change any simulated result.
// Even sequence numbers carry typed handlers and odd ones Func
// closures, and every pop must come out with the handler it was pushed
// with.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q eventQueue
	var ref refHeap
	pushed, popped := 0, 0
	const total = 10_000
	nop := Func(func() {})
	for popped < total {
		// Bias toward pushes until the budget is spent, then drain.
		if pushed < total && (len(q) == 0 || rng.Intn(3) != 0) {
			var h Handler = nop
			if pushed%2 == 0 {
				tag := seqTag(pushed)
				h = &tag
			}
			ev := event{at: Time(rng.Intn(100)), seq: uint64(pushed), h: h}
			q.push(ev)
			heap.Push(&ref, ev)
			pushed++
			continue
		}
		if len(q) != ref.Len() {
			t.Fatalf("size diverged: inlined %d, container/heap %d", len(q), ref.Len())
		}
		got := q.pop()
		want := heap.Pop(&ref).(event)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop %d diverged: inlined (at=%d seq=%d), container/heap (at=%d seq=%d)",
				popped, got.at, got.seq, want.at, want.seq)
		}
		if tag, typed := got.h.(*seqTag); typed != (got.seq%2 == 0) || typed && uint64(*tag) != got.seq {
			t.Fatalf("pop %d: seq %d came out with handler %T", popped, got.seq, got.h)
		}
		popped++
	}
}

// calDelay draws a scheduling delay for the calendar property tests:
// mostly 0 or 1 cycle, as on the coherence machine, so same-instant
// collisions are heavy, with a tail out to four horizons so events
// cross the calendar's overflow heap.
func calDelay(rng *rand.Rand) Time {
	switch r := rng.Intn(10); {
	case r < 4:
		return Time(rng.Intn(2))
	case r < 7:
		return Time(rng.Intn(64))
	case r < 9:
		return Time(rng.Intn(calBuckets))
	default:
		return Time(rng.Intn(4*calBuckets + 1))
	}
}

// TestCalendarMatchesContainerHeap drives the calendar and
// container/heap with one random interleaving of pushes, peeks, pops
// and resets, and requires the same event from every peek and pop.
// Pushes never precede the last popped instant, as in both kernels.
// Besides single pushes the script makes batches of same-instant events
// whose sequence numbers arrive out of order, as the sharded kernel's
// rebind pushes them, and peeks followed by a push of delay 0 or 1, as
// the sharded kernel's scan for its next instant followed by a Schedule
// does.
func TestCalendarMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var c calendar
		var ref refHeap
		var now Time // instant of the last pop
		var seq uint64
		push := func(at Time, seq uint64) {
			tag := seqTag(seq)
			c.push(at, seq, &tag)
			heap.Push(&ref, event{at: at, seq: seq, h: &tag})
		}
		pop := func(op int) {
			got, want := c.pop(), heap.Pop(&ref).(event)
			if got.at != want.at || got.seq != want.seq || got.h != want.h {
				t.Fatalf("seed %d op %d: pop (at=%d seq=%d), container/heap (at=%d seq=%d)",
					seed, op, got.at, got.seq, want.at, want.seq)
			}
			now = got.at
		}
		for op := 0; op < 20_000; op++ {
			switch r := rng.Intn(100); {
			case ref.Len() > 0 && (r < 45 || ref.Len() > 400):
				pop(op)
			case r < 85:
				seq++
				push(now+calDelay(rng), seq)
			case r < 92:
				at := now + calDelay(rng)
				k := 2 + rng.Intn(6)
				for _, i := range rng.Perm(k) {
					push(at, seq+1+uint64(i))
				}
				seq += uint64(k)
			case r < 99:
				if ref.Len() > 0 {
					at, sq := c.peek()
					if next := c.next(); at != ref[0].at || sq != ref[0].seq || next != at {
						t.Fatalf("seed %d op %d: peek (at=%d seq=%d) and next %d, container/heap (at=%d seq=%d)",
							seed, op, at, sq, next, ref[0].at, ref[0].seq)
					}
				}
				seq++
				push(now+Time(rng.Intn(2)), seq)
			default:
				c.reset()
				ref = ref[:0]
				now, seq = 0, 0
			}
			if c.len() != ref.Len() {
				t.Fatalf("seed %d op %d: calendar holds %d events, container/heap %d", seed, op, c.len(), ref.Len())
			}
		}
		for op := 0; ref.Len() > 0; op++ {
			pop(op)
		}
	}
}

// traceEv is an event of TestEngineMatchesReference's script: it logs
// its id and firing instant and, for ids below a bound, schedules two
// children whose delays follow from the id, so both engines grow the
// same event tree from the same firing order.
type traceEv struct {
	id    uint64
	log   *[]uint64
	now   func() Time
	sched func(Time, Handler)
}

func (ev *traceEv) Fire() {
	*ev.log = append(*ev.log, ev.id, uint64(ev.now()))
	if ev.id >= 4000 {
		return
	}
	for k := uint64(1); k <= 2; k++ {
		child := 2*ev.id + k
		var d Time
		switch h := child * 0x9e3779b97f4a7c15 >> 40; h % 5 {
		case 0, 1:
			d = Time(h % 2)
		case 2, 3:
			d = Time(h % 48)
		default:
			d = Time(h % (3 * calBuckets))
		}
		ev.sched(d, &traceEv{id: child, log: ev.log, now: ev.now, sched: ev.sched})
	}
}

// refEngine is Engine's contract driven through container/heap: the
// oracle for TestEngineMatchesReference.
type refEngine struct {
	now      Time
	seq      uint64
	executed uint64
	q        refHeap
}

func (r *refEngine) schedule(d Time, h Handler) {
	r.seq++
	heap.Push(&r.q, event{at: r.now + d, seq: r.seq, h: h})
}

// run fires events until the queue drains or the events counted since
// the last reset pass budget (0: no limit), and reports whether the
// budget stopped it. The event that passes the budget is popped and
// counted but not fired, as Engine.Run does.
func (r *refEngine) run(budget uint64) bool {
	for r.q.Len() > 0 {
		ev := heap.Pop(&r.q).(event)
		r.now = ev.at
		r.executed++
		if budget != 0 && r.executed > budget {
			return true
		}
		ev.h.Fire()
	}
	return false
}

// TestEngineMatchesReference runs one random script of Schedule, Run
// (mostly stopped by a small event budget), and Reset with events
// pending on Engine and on a container/heap reference, and requires
// identical firing logs: ids and instants, event for event.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var r refEngine
		var got, want []uint64
		checked := 0
		id := uint64(0)
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(20); {
			case op < 12:
				id = (id + 1) % 4000
				d := calDelay(rng)
				e.Schedule(d, &traceEv{id: id, log: &got, now: e.Now, sched: e.Schedule})
				r.schedule(d, &traceEv{id: id, log: &want, now: func() Time { return r.now }, sched: r.schedule})
			case op < 19:
				e.MaxEvents = 0
				if op < 18 {
					e.MaxEvents = e.Executed() + 1 + uint64(rng.Intn(8))
				}
				err := e.Run()
				var wantErr error
				if r.run(e.MaxEvents) {
					wantErr = ErrEventBudget
				}
				if err != wantErr {
					t.Fatalf("seed %d step %d: Run with budget %d returned %v, want %v",
						seed, step, e.MaxEvents, err, wantErr)
				}
			default:
				e.Reset()
				r = refEngine{}
			}
			if e.Now() != r.now || e.Executed() != r.executed || e.Pending() != r.q.Len() || !slices.Equal(got[checked:], want[checked:]) {
				t.Fatalf("seed %d step %d: engine at %d after %d events with %d pending, reference at %d after %d with %d; logs equal %v",
					seed, step, e.Now(), e.Executed(), e.Pending(), r.now, r.executed, r.q.Len(), slices.Equal(got, want))
			}
			checked = len(got)
		}
	}
}

// TestRunBackwardsTimePanics checks that Run refuses a queue whose head
// is behind the clock (only reachable through a kernel bug, hence the
// white-box queue surgery).
func TestRunBackwardsTimePanics(t *testing.T) {
	e := NewEngine()
	e.now = 10
	e.queue.push(5, 1, Func(func() {}))
	defer func() {
		if recover() == nil {
			t.Fatal("Run did not panic on a backwards-time event")
		}
	}()
	_ = e.Run()
}

// TestPopReleasesClosure checks that a popped event's slot no longer
// holds its handler, so the queue does not pin popped handlers (and
// what they reference) in memory: the calendar's node goes back to the
// free list cleared, and the overflow heap zeroes its vacated tail.
func TestPopReleasesClosure(t *testing.T) {
	var c calendar
	c.push(1, 1, Func(func() {}))
	c.push(2, 2, Func(func() {}))
	c.push(3*calBuckets, 3, Func(func() {}))
	c.push(3*calBuckets+1, 4, Func(func() {}))
	c.pop()
	if c.nodes[c.free].h != nil {
		t.Fatal("popped node still holds its handler")
	}
	c.pop()
	c.pop() // migrates both heap events into buckets first
	for i, n := range c.nodes {
		if n.h != nil && n.seq != 4 {
			t.Fatalf("node %d (seq %d) still holds its handler after its pop", i, n.seq)
		}
	}
	if tail := c.over[:cap(c.over)]; tail[0].h != nil || tail[1].h != nil {
		t.Fatal("vacated heap slot still holds its handler")
	}
	var q eventQueue
	q.push(event{at: 1, seq: 1, h: Func(func() {})})
	q.push(event{at: 2, seq: 2, h: Func(func() {})})
	q.pop()
	if q[:cap(q)][len(q)].h != nil {
		t.Fatal("popped heap slot still holds its handler")
	}
}
