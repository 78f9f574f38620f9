package sim

import (
	"container/heap"
	"math/rand"
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

// TestRunBackwardsTimePanics checks that Run refuses a queue whose head
// is behind the clock (only reachable through a kernel bug, hence the
// white-box queue surgery).
func TestRunBackwardsTimePanics(t *testing.T) {
	e := NewEngine()
	e.now = 10
	e.queue = eventQueue{{at: 5, seq: 1, h: Func(func() {})}}
	defer func() {
		if recover() == nil {
			t.Fatal("Run did not panic on a backwards-time event")
		}
	}()
	_ = e.Run()
}

// TestRunUntilBackwardsTimePanics is the same guard for RunUntil, which
// the seed implementation was missing.
func TestRunUntilBackwardsTimePanics(t *testing.T) {
	e := NewEngine()
	e.now = 10
	e.queue = eventQueue{{at: 5, seq: 1, h: Func(func() {})}}
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil did not panic on a backwards-time event")
		}
	}()
	_, _ = e.RunUntil(20)
}

// TestPopReleasesClosure checks the vacated heap slot is zeroed so the
// queue does not pin popped handlers (and what they reference) in
// memory.
func TestPopReleasesClosure(t *testing.T) {
	var q eventQueue
	q.push(event{at: 1, seq: 1, h: Func(func() {})})
	q.push(event{at: 2, seq: 2, h: Func(func() {})})
	q.pop()
	tail := q[:cap(q)][len(q)]
	if tail.h != nil {
		t.Fatal("popped slot still holds its handler")
	}
}
