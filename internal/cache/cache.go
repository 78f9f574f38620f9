// Package cache implements the per-node data cache: a set-associative
// (by default fully-associative, per the paper's Table 5) array of
// lines with true LRU replacement and room for per-line protocol
// metadata such as the Dir_iTree_k child pointers.
//
// The cache holds tags and states only; simulated data values live in
// the machine's backing store so that the coherence monitor can verify
// protocol correctness independently of the cache structure.
//
// One open-addressed table per cache maps a block to its line: linear
// probing over a power-of-two table at least twice the frame count,
// keyed by a multiplicative hash of the block number, with
// backward-shift deletion so no tombstones build up. Each set keeps its
// frames in a doubly linked LRU list. Frames are handed out from chunks
// of up to 64 Lines, so a *Line stays valid for the cache's life and a
// miss allocates nothing but the occasional chunk.
package cache

import (
	"fmt"
	"math/bits"
)

// BlockID is a global shared-memory block number (address / block size).
type BlockID uint64

// State is a stable cache-line state from the paper's Figure 3.
// Transient states (RM_IP, WM_IP, INV_IP) are tracked per outstanding
// transaction by the machine, not stored in the line.
type State uint8

const (
	// Invalid (IV): the line holds no usable copy.
	Invalid State = iota
	// Valid (V): a read-only shared copy.
	Valid
	// Exclusive (E): the only copy, possibly dirty.
	Exclusive
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "IV"
	case Valid:
		return "V"
	case Exclusive:
		return "E"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Line is one cache block frame.
type Line struct {
	Block BlockID
	State State
	// Val is the simulated 64-bit block contents; the coherence monitor
	// compares it against the authoritative store to detect stale
	// copies.
	Val uint64
	// Meta holds protocol-specific per-line directory state, e.g. the
	// k child pointers of Dir_iTree_k or the next pointer of SCI.
	Meta any
	// Pinned lines are never chosen as victims (a miss is outstanding
	// on them).
	Pinned bool

	set        int
	prev, next *Line // LRU list links within the set
}

// frameChunk is the most Lines the cache allocates at once.
const frameChunk = 64

// Cache is a set-associative cache with per-set true LRU.
type Cache struct {
	sets  int
	assoc int
	// index maps a block to its line: linear probing from slot
	// hash(block) >> shift, nil marking an empty slot.
	index []*Line
	shift uint
	// per-set LRU ordering; head = MRU, tail = LRU.
	head []*Line
	tail []*Line
	used []int
	// lines counts the frames handed out since New or Reset; fresh is
	// what is left of the newest chunk.
	lines int
	fresh []Line
}

// New builds a cache with the given number of sets and associativity.
// A fully-associative cache of L lines is New(1, L).
func New(sets, assoc int) (*Cache, error) {
	if sets < 1 || assoc < 1 {
		return nil, fmt.Errorf("cache: invalid geometry sets=%d assoc=%d", sets, assoc)
	}
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: sets must be a power of two, got %d", sets)
	}
	// The smallest power of two at least twice the frame count keeps
	// the load factor at or under one half.
	logSize := bits.Len(uint(2*sets*assoc - 1))
	return &Cache{
		sets:  sets,
		assoc: assoc,
		index: make([]*Line, 1<<logSize),
		shift: uint(64 - logSize),
		head:  make([]*Line, sets),
		tail:  make([]*Line, sets),
		used:  make([]int, sets),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(sets, assoc int) *Cache {
	c, err := New(sets, assoc)
	if err != nil {
		panic(err)
	}
	return c
}

// Reset empties the cache to the state New leaves it in: no frames in
// any set. The index keeps its storage; the chunk of unused frames is
// dropped and frames are allocated afresh by Victim, so no Line handed
// out before the reset is reused after it.
func (c *Cache) Reset() {
	clear(c.index)
	clear(c.head)
	clear(c.tail)
	clear(c.used)
	c.lines = 0
	c.fresh = nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc returns the associativity (ways per set).
func (c *Cache) Assoc() int { return c.assoc }

// Capacity returns the total number of line frames.
func (c *Cache) Capacity() int { return c.sets * c.assoc }

// Len returns the number of lines currently holding a block (any state,
// including Invalid lines that still occupy a frame until reused).
func (c *Cache) Len() int { return c.lines }

func (c *Cache) setOf(b BlockID) int { return int(b) & (c.sets - 1) }

// home returns block b's home slot in the index: Fibonacci hashing, the
// top bits of the block number times 2^64 over the golden ratio.
func (c *Cache) home(b BlockID) int { return int(uint64(b) * 0x9e3779b97f4a7c15 >> c.shift) }

// slot returns the index slot holding block b, or the empty slot where
// b's probe sequence ends.
//
//dirccvet:hotpath
func (c *Cache) slot(b BlockID) int {
	mask := len(c.index) - 1
	i := c.home(b)
	for ln := c.index[i]; ln != nil && ln.Block != b; ln = c.index[i] {
		i = (i + 1) & mask
	}
	return i
}

// remove empties index slot i by backward-shift deletion: each later
// line of the same probe run that may live at or before the hole moves
// into it, so every remaining line stays reachable from its home slot
// without tombstones.
//
//dirccvet:hotpath
func (c *Cache) remove(i int) {
	mask := len(c.index) - 1
	for j := (i + 1) & mask; c.index[j] != nil; j = (j + 1) & mask {
		// The line at j may move to the hole at i when i lies
		// cyclically within [home, j).
		if (j-c.home(c.index[j].Block))&mask >= (j-i)&mask {
			c.index[i] = c.index[j]
			i = j
		}
	}
	c.index[i] = nil
}

// Lookup returns the line holding block b, or nil. It does not update
// LRU order; callers decide whether an access counts as a use (Touch).
//
//dirccvet:hotpath
func (c *Cache) Lookup(b BlockID) *Line { return c.index[c.slot(b)] }

// Touch marks ln most-recently-used within its set.
func (c *Cache) Touch(ln *Line) {
	c.unlink(ln)
	c.pushFront(ln)
}

// Victim returns the frame to use for block b: the line already holding
// b if present, else an unused frame, else the least-recently-used
// unpinned line in b's set (which the caller must evict with Evict
// before installing). Returns nil only if every frame in the set is
// pinned, which cannot happen with one outstanding miss per processor
// unless the cache is pathologically small; callers treat nil as a
// fatal configuration error.
//
//dirccvet:hotpath
func (c *Cache) Victim(b BlockID) *Line {
	if ln := c.Lookup(b); ln != nil {
		return ln
	}
	s := c.setOf(b)
	if c.used[s] < c.assoc {
		if len(c.fresh) == 0 {
			c.newChunk()
		}
		ln := &c.fresh[0]
		c.fresh = c.fresh[1:]
		ln.set = s
		c.used[s]++
		c.lines++
		c.pushFront(ln)
		return ln
	}
	// Walk from LRU toward MRU for the first unpinned frame.
	for ln := c.tail[s]; ln != nil; ln = ln.prev {
		if !ln.Pinned {
			return ln
		}
	}
	return nil
}

// newChunk allocates the next chunk of frames: up to frameChunk Lines,
// never more than the cache has left to hand out. It stays out of line
// so that allocguard attributes the allocation here rather than to
// Victim.
//
//dirccvet:hotpath
//go:noinline
func (c *Cache) newChunk() {
	//dirccvet:allow allocguard one chunk per 64 frames, never more Lines than the cache holds
	c.fresh = make([]Line, min(frameChunk, c.sets*c.assoc-c.lines))
}

// Evict removes ln's current block from the lookup index and resets the
// line to Invalid with no metadata. The frame remains in the set for
// reuse. Evicting an unindexed (fresh) line is a no-op.
//
//dirccvet:hotpath
func (c *Cache) Evict(ln *Line) {
	if i := c.slot(ln.Block); c.index[i] == ln {
		c.remove(i)
	}
	ln.State = Invalid
	ln.Meta = nil
}

// Install binds ln to block b in the given state and marks it MRU.
// The line must have been obtained from Victim (and Evicted if it held
// a different block).
//
//dirccvet:hotpath
func (c *Cache) Install(ln *Line, b BlockID, st State) {
	if ln.Block != b && c.Lookup(ln.Block) == ln {
		c.panicLive(ln)
	}
	i := c.slot(b)
	switch other := c.index[i]; {
	case other == nil:
		c.index[i] = ln
	case other != ln:
		c.panicTaken(b)
	}
	ln.Block = b
	ln.State = st
	c.Touch(ln)
}

// panicLive and panicTaken report Install's misuse. They stay out of
// line so that their formatting is not charged to Install.
//
//go:noinline
func (c *Cache) panicLive(ln *Line) {
	panic(fmt.Sprintf("cache: Install over live block %d without Evict", ln.Block))
}

//go:noinline
func (c *Cache) panicTaken(b BlockID) {
	panic(fmt.Sprintf("cache: block %d already cached in another frame", b))
}

// Invalidate marks the line holding b Invalid (clearing metadata) and
// removes it from the index, keeping the frame. Returns the prior state
// and true if b was present.
func (c *Cache) Invalidate(b BlockID) (State, bool) {
	ln := c.Lookup(b)
	if ln == nil {
		return Invalid, false
	}
	st := ln.State
	c.Evict(ln)
	// An invalidated frame is a prime victim: move it to LRU.
	c.unlink(ln)
	c.pushBack(ln)
	return st, true
}

// ForEach calls fn for every line currently bound to a block, in index
// order. fn must not mutate the cache structure.
func (c *Cache) ForEach(fn func(*Line)) {
	for _, ln := range c.index {
		if ln != nil {
			fn(ln)
		}
	}
}

// ForEachMRU calls fn for every frame in deterministic order: sets in
// index order, each set's frames from most- to least-recently used.
// Unlike ForEach it also visits Invalid frames still occupying a slot,
// because their position in the LRU chain determines future victim
// selection. fn must not mutate the cache structure.
func (c *Cache) ForEachMRU(fn func(*Line)) {
	for s := 0; s < c.sets; s++ {
		for ln := c.head[s]; ln != nil; ln = ln.next {
			fn(ln)
		}
	}
}

// lru helpers

func (c *Cache) pushFront(ln *Line) {
	s := ln.set
	ln.prev = nil
	ln.next = c.head[s]
	if c.head[s] != nil {
		c.head[s].prev = ln
	}
	c.head[s] = ln
	if c.tail[s] == nil {
		c.tail[s] = ln
	}
}

func (c *Cache) pushBack(ln *Line) {
	s := ln.set
	ln.next = nil
	ln.prev = c.tail[s]
	if c.tail[s] != nil {
		c.tail[s].next = ln
	}
	c.tail[s] = ln
	if c.head[s] == nil {
		c.head[s] = ln
	}
}

func (c *Cache) unlink(ln *Line) {
	s := ln.set
	if ln.prev != nil {
		ln.prev.next = ln.next
	} else if c.head[s] == ln {
		c.head[s] = ln.next
	}
	if ln.next != nil {
		ln.next.prev = ln.prev
	} else if c.tail[s] == ln {
		c.tail[s] = ln.prev
	}
	ln.prev, ln.next = nil, nil
}
