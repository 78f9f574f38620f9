package coherent

import (
	"fmt"

	"dircc/internal/cache"
)

// Store is the authoritative simulated memory contents, maintained at
// write-serialization points: when the home begins processing a write
// request the new value is committed here, so every data reply the home
// issues afterwards carries the up-to-date block. Cache lines carry
// copies of these values, which lets the monitor detect stale reads.
//
// Storage is dense, indexed by block id. That matters under the
// sharded engine: a block's entry is touched by its home's lane (at
// serialization points) and by the exclusive owner's lane (write
// hits), accesses the protocol keeps causally ordered across rounds —
// but distinct blocks are touched from distinct lanes concurrently,
// which a map's shared internals would turn into a data race. A dense
// array gives every block its own memory. Growth is only legal while
// the simulation is single-threaded; Freeze pins the capacity before a
// sharded run.
type Store struct {
	cur []uint64
	// prev holds the old value of a block whose write transaction is
	// between serialization and completion (busy set); read hits in
	// other caches may legally still observe it (the write has not yet
	// performed under the strong consistency model).
	prev    []uint64
	busy    []bool
	touched []bool
	frozen  bool
}

// NewStore returns an empty memory image (all blocks read as zero).
func NewStore() *Store { return &Store{} }

// reset returns the image to the all-zero state NewStore leaves it in,
// keeping the backing arrays.
func (s *Store) reset() {
	clear(s.cur)
	clear(s.prev)
	clear(s.busy)
	clear(s.touched)
	s.frozen = false
}

// ensure grows the image to cover block b. Growth reallocates the
// backing arrays, which is only safe while one goroutine runs the
// simulation; a frozen (sharded) store panics instead.
func (s *Store) ensure(b BlockID) {
	if int(b) < len(s.cur) {
		return
	}
	if s.frozen {
		panic(fmt.Sprintf("coherent: block %d beyond the frozen store (allocate shared memory before running sharded)", b))
	}
	n := int(b) + 1
	if n < 2*len(s.cur) {
		n = 2 * len(s.cur)
	}
	grow := func(a []uint64) []uint64 { na := make([]uint64, n); copy(na, a); return na }
	growB := func(a []bool) []bool { na := make([]bool, n); copy(na, a); return na }
	s.cur, s.prev = grow(s.cur), grow(s.prev)
	s.busy, s.touched = growB(s.busy), growB(s.touched)
}

// Freeze grows the image to nblocks blocks and forbids further growth.
// The sharded machine calls it before starting workers so that lane
// accesses never reallocate the backing arrays.
func (s *Store) Freeze(nblocks int) {
	if nblocks > 0 {
		s.ensure(BlockID(nblocks - 1))
	}
	s.frozen = true
}

// Value returns the current (last serialized) value of block b.
//
//dirccvet:hotpath
func (s *Store) Value(b BlockID) uint64 {
	if int(b) >= len(s.cur) {
		return 0
	}
	return s.cur[b]
}

// ApplyWrite commits v as b's value at write-serialization time and
// remembers the old value until CommitWrite.
func (s *Store) ApplyWrite(b BlockID, v uint64) {
	s.ensure(b)
	if s.busy[b] {
		panic(fmt.Sprintf("coherent: two writes to block %d serialized concurrently", b))
	}
	s.busy[b] = true
	s.touched[b] = true
	s.prev[b] = s.cur[b]
	s.cur[b] = v
}

// CommitWrite marks b's in-flight write performed (all invalidations
// acknowledged, writer granted).
func (s *Store) CommitWrite(b BlockID) {
	if int(b) >= len(s.cur) || !s.busy[b] {
		panic(fmt.Sprintf("coherent: CommitWrite(%d) without ApplyWrite", b))
	}
	s.busy[b] = false
}

// WriteInFlight reports whether a write to b is between serialization
// and completion, returning the pre-write value.
func (s *Store) WriteInFlight(b BlockID) (old uint64, inFlight bool) {
	if int(b) >= len(s.cur) || !s.busy[b] {
		return 0, false
	}
	return s.prev[b], true
}

// OwnerValue records the exclusive owner's value of b: a write hit by
// the owner, or its dirty data arriving home in a writeback. If a later
// write to b is already serialized (its invalidation is racing toward
// the owner), the owner's value is ordered before it: it refreshes the
// pre-write image, and the serialized write's value stays committed.
func (s *Store) OwnerValue(b BlockID, v uint64) {
	s.ensure(b)
	s.touched[b] = true
	if s.busy[b] {
		s.prev[b] = v
		return
	}
	s.cur[b] = v
}

// Monitor verifies coherence invariants during a checked run. It is
// deliberately independent of the protocol engines: it watches only
// architectural events (hits, completions) and the caches' stable
// states.
type Monitor struct {
	m      *Machine
	errs   []string
	maxErr int
}

// NewMonitor attaches a monitor to m.
func NewMonitor(m *Machine) *Monitor { return &Monitor{m: m, maxErr: 20} }

// Errors returns the violations found so far. A nil monitor (an
// unchecked machine) reports none, so the invariant checks that sample
// it (CheckDrained, CheckQuiescent) work on unchecked machines too.
func (mon *Monitor) Errors() []string {
	if mon == nil {
		return nil
	}
	return mon.errs
}

func (mon *Monitor) fail(format string, args ...any) {
	if len(mon.errs) < mon.maxErr {
		mon.errs = append(mon.errs, fmt.Sprintf(format, args...))
	}
}

// OnReadHit checks that a hit returns either the current value or, if a
// write is mid-flight (serialized but not yet performed), the pre-write
// value. Anything else is a stale copy that survived an invalidation.
func (mon *Monitor) OnReadHit(n NodeID, b BlockID, got uint64) {
	cur := mon.m.Store.Value(b)
	if got == cur {
		return
	}
	if old, busy := mon.m.Store.WriteInFlight(b); busy && got == old {
		return
	}
	mon.fail("node %d read hit on block %d returned %d; memory holds %d", n, b, got, cur)
}

// OnReadComplete checks a read miss's reply value.
func (mon *Monitor) OnReadComplete(n NodeID, b BlockID, got uint64) {
	cur := mon.m.Store.Value(b)
	if got == cur {
		return
	}
	if old, busy := mon.m.Store.WriteInFlight(b); busy && got == old {
		return
	}
	mon.fail("node %d read miss on block %d completed with %d; memory holds %d", n, b, got, cur)
}

// UpdateProtocol is implemented by engines that propagate writes to
// sharers instead of invalidating them; the monitor then checks that
// surviving copies carry the new value rather than that none survive.
type UpdateProtocol interface {
	UpdatesCopies() bool
}

// OnWriteComplete checks the write-atomicity invariant at the instant a
// write transaction performs. Invalidation protocols: no cache other
// than the writer may hold the block in a stable non-invalid state.
// Update protocols: every surviving copy must already carry the new
// value.
func (mon *Monitor) OnWriteComplete(writer NodeID, b BlockID) {
	if up, ok := mon.m.proto.(UpdateProtocol); ok && up.UpdatesCopies() {
		want := mon.m.Store.Value(b)
		for _, node := range mon.m.Nodes {
			if node.ID == writer {
				continue
			}
			if ln := node.Cache.Lookup(b); ln != nil && ln.State != cache.Invalid && ln.Val != want {
				mon.fail("update write by node %d to block %d completed while node %d holds stale value %d (want %d)",
					writer, b, node.ID, ln.Val, want)
			}
		}
		return
	}
	for _, node := range mon.m.Nodes {
		if node.ID == writer {
			continue
		}
		if ln := node.Cache.Lookup(b); ln != nil && ln.State != cache.Invalid {
			mon.fail("write by node %d to block %d completed while node %d still holds it in state %v",
				writer, b, node.ID, ln.State)
		}
	}
}
