package sim

import "math/bits"

// The kernel's event queue is a calendar queue (R. Brown, "Calendar
// Queues", CACM 31(10), 1988) with one-cycle buckets: calBuckets
// buckets cover the instants [base, base+calBuckets), so every event
// inside that horizon is filed under its own instant and found again
// through an occupancy bitmap. Events at or beyond the horizon wait in
// a binary heap (eventQueue) and move into their buckets as the base
// advances. The coherence machine's scheduling delays are network and
// memory latencies, all well under the horizon, so the heap is nearly
// always empty and scheduling, popping and peeking cost O(1).
const (
	calBuckets = 1 << 10 // horizon in cycles; one bucket per cycle
	calMask    = calBuckets - 1
	calWords   = calBuckets / 64 // occupancy bitmap words
	calMinPool = 64              // node pool's first capacity; it doubles from there
)

// calNode is one queued event. Nodes live in one pool slice and link
// by index (0 is the nil link), so bucket lists, the free list and
// pool growth never allocate per event.
type calNode struct {
	at   Time
	seq  uint64
	h    Handler
	next int32
}

// calendar is the queue both kernels use: Engine embeds one by value
// (its zero value is an empty calendar at base 0), every Sharded lane
// holds one and so does Sharded's global queue.
//
// Invariants that keep its pop sequence identical to a binary heap's
// (at, seq) order:
//   - every bucketed event lies in [base, base+calBuckets) and every
//     heap event at or past base+calBuckets, so the first occupied
//     bucket after base holds the minimum;
//   - each bucket is a FIFO list sorted by seq;
//   - the base moves only in pop, to the popped instant, and moves the
//     heap events that enter the horizon into their buckets at once, so
//     they precede every same-instant event scheduled later;
//   - next and peek never move the base, so an event scheduled after
//     a peek (the sharded kernel scans its queues for the next instant
//     before its events schedule more) still lands at or after the
//     base;
//   - top, when not 0, is 1 + the first occupied bucket and topAt its
//     instant, so peeks and same-instant pops skip the bitmap scan.
type calendar struct {
	base  Time
	inb   int // events in buckets
	top   int32
	topAt Time
	occ   [calWords]uint64
	head  [calBuckets]int32
	tail  [calBuckets]int32
	nodes []calNode // nodes[0] is the unused nil node
	free  int32
	over  eventQueue // events at or beyond base+calBuckets
}

// len returns the number of queued events.
func (c *calendar) len() int { return c.inb + len(c.over) }

// push queues h at instant at with tie-breaker seq. at must not be
// before the base, which no caller can reach: the base never passes
// the clock, and both kernels refuse to schedule in the past.
//
//dirccvet:hotpath
func (c *calendar) push(at Time, seq uint64, h Handler) {
	if at-c.base >= calBuckets {
		c.spill(at, seq, h)
		return
	}
	c.file(at, seq, h)
}

// spill queues an event beyond the horizon in the overflow heap. Such
// events are rare, and keeping the heap's sift loop out of line keeps
// it off push's common path.
//
//dirccvet:hotpath
//go:noinline
func (c *calendar) spill(at Time, seq uint64, h Handler) {
	if at < c.base {
		panic("sim: event queued before the calendar's base")
	}
	c.over.push(event{at: at, seq: seq, h: h})
}

// file links a new node for (at, seq, h) into at's bucket, keeping the
// bucket sorted by seq. A kernel allocates sequence numbers in
// increasing order, so the new node almost always goes at the tail;
// the sharded kernel's rebind is the exception (see insert).
//
//dirccvet:hotpath
func (c *calendar) file(at Time, seq uint64, h Handler) {
	k := c.free
	if k != 0 {
		c.free = c.nodes[k].next
	} else {
		k = c.grow()
	}
	// Field by field: assigning a whole calNode literal, which holds a
	// pointer, compiles to a typedmemmove.
	n := &c.nodes[k]
	n.at = at
	n.seq = seq
	n.h = h
	n.next = 0
	s := int(at & calMask)
	if c.inb == 0 || c.top != 0 && at < c.topAt {
		c.top, c.topAt = int32(s)+1, at
	}
	w, bit := s>>6, uint64(1)<<(s&63)
	switch {
	case c.occ[w]&bit == 0:
		c.occ[w] |= bit
		c.head[s], c.tail[s] = k, k
	case c.nodes[c.tail[s]].seq < seq:
		c.nodes[c.tail[s]].next = k
		c.tail[s] = k
	default:
		c.insert(s, k)
	}
	c.inb++
}

// insert links node k into bucket s ahead of the first node with a
// larger seq. Only the sharded kernel gets here: its rebind pushes the
// spawns a replay bound after that replay's direct AtNode deliveries,
// whose sequence numbers are larger.
func (c *calendar) insert(s int, k int32) {
	seq := c.nodes[k].seq
	p := c.head[s]
	if c.nodes[p].seq > seq {
		c.nodes[k].next = p
		c.head[s] = k
		return
	}
	for q := c.nodes[p].next; q != 0 && c.nodes[q].seq < seq; q = c.nodes[q].next {
		p = q
	}
	c.nodes[k].next = c.nodes[p].next
	c.nodes[p].next = k
	if c.nodes[k].next == 0 {
		c.tail[s] = k
	}
}

// grow appends a node to the pool and returns its index, doubling the
// pool's capacity when it is full. It stays out of line so that
// allocguard attributes the growth here rather than to push.
//
//dirccvet:hotpath
//go:noinline
func (c *calendar) grow() int32 {
	if len(c.nodes) == cap(c.nodes) {
		//dirccvet:allow allocguard the pool grows only while more events are pending than ever before
		nodes := make([]calNode, len(c.nodes), max(2*cap(c.nodes), calMinPool))
		copy(nodes, c.nodes)
		if len(nodes) == 0 {
			nodes = nodes[:1] // the nil node
		}
		c.nodes = nodes
	}
	c.nodes = c.nodes[:len(c.nodes)+1]
	return int32(len(c.nodes) - 1)
}

// first returns the first occupied bucket at or after the base's, in
// instant order, and records it as the top. The buckets must not all be
// empty.
//
//dirccvet:hotpath
func (c *calendar) first() int {
	if c.top != 0 {
		return int(c.top - 1)
	}
	s := int(c.base & calMask)
	if m := c.occ[s>>6] >> (s & 63); m != 0 {
		s += bits.TrailingZeros64(m)
	} else {
		s = c.firstAfter(s >> 6)
	}
	c.top, c.topAt = int32(s)+1, c.nodes[c.head[s]].at
	return s
}

// firstAfter returns the first occupied bucket in the bitmap words after
// w. The bitmap is circular: those words hold later instants, and w's
// own low bits, checked last, the latest of the horizon.
//
//dirccvet:hotpath
func (c *calendar) firstAfter(w int) int {
	for i := 1; i <= calWords; i++ {
		wi := (w + i) & (calWords - 1)
		if m := c.occ[wi]; m != 0 {
			return wi<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: calendar occupancy lost")
}

// next returns the instant of the next event without removing it or
// moving the base. The queue must not be empty.
//
//dirccvet:hotpath
func (c *calendar) next() Time {
	if c.inb == 0 {
		return c.over[0].at
	}
	c.first()
	return c.topAt
}

// peek returns the instant and sequence number of the next event
// without removing it or moving the base. The queue must not be empty.
//
//dirccvet:hotpath
func (c *calendar) peek() (Time, uint64) {
	if c.inb == 0 {
		return c.over[0].at, c.over[0].seq
	}
	n := &c.nodes[c.head[c.first()]]
	return n.at, n.seq
}

// pop removes and returns the next event in (at, seq) order, advancing
// the base to its instant. The node goes back to the free list with its
// handler cleared, so the queue does not pin what the handler
// references. The queue must not be empty.
//
//dirccvet:hotpath
func (c *calendar) pop() event {
	if c.inb == 0 {
		c.base = c.over[0].at
		c.migrate()
	}
	s := c.first()
	k := c.head[s]
	if at := c.nodes[k].at; at != c.base {
		c.base = at
		// Heap events entering the horizon land in buckets of later
		// instants than s, so the head of s stays put.
		if len(c.over) != 0 {
			c.migrate()
		}
	}
	n := &c.nodes[k]
	ev := event{at: n.at, seq: n.seq, h: n.h}
	c.head[s] = n.next
	if n.next == 0 {
		c.occ[s>>6] &^= 1 << (s & 63)
		c.top = 0
	}
	n.h = nil
	n.next = c.free
	c.free = k
	c.inb--
	return ev
}

// migrate moves every heap event inside the horizon into its bucket.
// The heap pops them in (at, seq) order, so each lands at its bucket's
// tail.
//
//dirccvet:hotpath
func (c *calendar) migrate() {
	for len(c.over) > 0 && c.over[0].at-c.base < calBuckets {
		ev := c.over.pop()
		c.file(ev.at, ev.seq, ev.h)
	}
}

// reset empties the calendar back to base 0, keeping the node pool and
// the heap's capacity. Pending events are dropped unfired. An empty
// calendar resets in O(1): only occupied buckets need clearing, and it
// has none.
func (c *calendar) reset() {
	c.base, c.top = 0, 0
	if c.inb != 0 {
		clear(c.occ[:])
		clear(c.nodes)
		c.nodes = c.nodes[:1]
		c.free = 0
		c.inb = 0
	}
	if len(c.over) != 0 {
		clear(c.over)
		c.over = c.over[:0]
	}
}

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
// sift loops inlined (no interface dispatch, no boxing). The calendar
// keeps the events beyond its horizon in one.
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
