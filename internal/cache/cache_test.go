package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometryValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("sets=0 accepted")
	}
	if _, err := New(4, 0); err == nil {
		t.Error("assoc=0 accepted")
	}
	if _, err := New(3, 4); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sets() != 4 || c.Assoc() != 2 || c.Capacity() != 8 {
		t.Fatalf("geometry wrong: %d sets, %d ways", c.Sets(), c.Assoc())
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "IV" || Valid.String() != "V" || Exclusive.String() != "E" {
		t.Error("state strings wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state should still render")
	}
}

func fill(t *testing.T, c *Cache, blocks ...BlockID) {
	t.Helper()
	for _, b := range blocks {
		ln := c.Victim(b)
		if ln == nil {
			t.Fatalf("no victim for %d", b)
		}
		if ln.Block != b || c.Lookup(b) == nil {
			c.Evict(ln)
			c.Install(ln, b, Valid)
		}
	}
}

func TestInstallLookup(t *testing.T) {
	c := MustNew(1, 4)
	fill(t, c, 10, 20, 30)
	if c.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", c.Len())
	}
	for _, b := range []BlockID{10, 20, 30} {
		ln := c.Lookup(b)
		if ln == nil || ln.Block != b || ln.State != Valid {
			t.Fatalf("Lookup(%d) broken: %+v", b, ln)
		}
	}
	if c.Lookup(99) != nil {
		t.Fatal("Lookup of absent block should be nil")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := MustNew(1, 2)
	fill(t, c, 1, 2)
	// Touch 1 so 2 becomes LRU.
	c.Touch(c.Lookup(1))
	v := c.Victim(3)
	if v.Block != 2 {
		t.Fatalf("victim is block %d, want 2 (LRU)", v.Block)
	}
	c.Evict(v)
	c.Install(v, 3, Valid)
	if c.Lookup(2) != nil {
		t.Fatal("evicted block still indexed")
	}
	if c.Lookup(1) == nil || c.Lookup(3) == nil {
		t.Fatal("survivors missing")
	}
}

func TestVictimPrefersExistingLine(t *testing.T) {
	c := MustNew(1, 2)
	fill(t, c, 1, 2)
	if v := c.Victim(1); v.Block != 1 {
		t.Fatalf("Victim(1) returned block %d, want the existing line", v.Block)
	}
}

func TestVictimSkipsPinned(t *testing.T) {
	c := MustNew(1, 2)
	fill(t, c, 1, 2)
	c.Lookup(1).Pinned = true
	c.Lookup(2).Pinned = true
	if v := c.Victim(3); v != nil {
		t.Fatalf("all-pinned set returned victim %+v", v)
	}
	c.Lookup(2).Pinned = false
	if v := c.Victim(3); v == nil || v.Block != 2 {
		t.Fatal("unpinned line not chosen")
	}
}

func TestInvalidateMovesToLRU(t *testing.T) {
	c := MustNew(1, 3)
	fill(t, c, 1, 2, 3)
	st, ok := c.Invalidate(2)
	if !ok || st != Valid {
		t.Fatalf("Invalidate(2) = %v,%v", st, ok)
	}
	if c.Lookup(2) != nil {
		t.Fatal("invalidated block still indexed")
	}
	// The freed frame must be the next victim even though 1 is older.
	v := c.Victim(9)
	if v.Block == 1 || v.Block == 3 {
		t.Fatal("victim should be the invalidated frame, not a live line")
	}
	if _, ok := c.Invalidate(42); ok {
		t.Fatal("Invalidate of absent block claimed success")
	}
}

func TestInstallConflictsPanic(t *testing.T) {
	c := MustNew(1, 2)
	fill(t, c, 1, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Install over live block without Evict did not panic")
			}
		}()
		c.Install(c.Lookup(1), 7, Valid)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double-caching a block did not panic")
			}
		}()
		ln := c.Lookup(1)
		c.Evict(ln)
		c.Install(ln, 2, Valid) // 2 lives in the other frame
	}()
}

func TestSetMapping(t *testing.T) {
	c := MustNew(4, 1)
	// Blocks 0,4,8 map to set 0; 1 maps to set 1.
	fill(t, c, 0)
	fill(t, c, 1)
	v := c.Victim(4)
	if v.Block != 0 {
		t.Fatalf("Victim(4) = block %d, want 0 (same set)", v.Block)
	}
	if c.Lookup(1) == nil {
		t.Fatal("other set disturbed")
	}
}

func TestMetadataSurvivesTouchButNotEvict(t *testing.T) {
	c := MustNew(1, 2)
	fill(t, c, 1)
	ln := c.Lookup(1)
	ln.Meta = "tree-children"
	c.Touch(ln)
	if ln.Meta != "tree-children" {
		t.Fatal("Touch cleared metadata")
	}
	c.Evict(ln)
	if ln.Meta != nil {
		t.Fatal("Evict kept metadata")
	}
}

// Property: the cache never exceeds capacity, never holds a block in
// two frames, and a just-installed block is always resident.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw%500) + 1
		c := MustNew(2, 4)
		for i := 0; i < ops; i++ {
			b := BlockID(rng.Intn(32))
			switch rng.Intn(3) {
			case 0: // access/install
				ln := c.Victim(b)
				if ln == nil {
					return false
				}
				if ln.Block != b || c.Lookup(b) != ln {
					c.Evict(ln)
					c.Install(ln, b, Valid)
				} else {
					c.Touch(ln)
				}
				if c.Lookup(b) == nil {
					return false
				}
			case 1:
				c.Invalidate(b)
			case 2:
				if ln := c.Lookup(b); ln != nil {
					c.Touch(ln)
				}
			}
			if c.Len() > c.Capacity() {
				return false
			}
			seen := map[BlockID]int{}
			c.ForEach(func(ln *Line) { seen[ln.Block]++ })
			for _, n := range seen {
				if n != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with W ways, the W most recently used distinct blocks of a
// set are always resident (true LRU).
func TestQuickTrueLRU(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const ways = 4
		c := MustNew(1, ways)
		var recent []BlockID // distinct, most recent last
		touch := func(b BlockID) {
			for i, x := range recent {
				if x == b {
					recent = append(recent[:i], recent[i+1:]...)
					break
				}
			}
			recent = append(recent, b)
		}
		for i := 0; i < 200; i++ {
			b := BlockID(rng.Intn(10))
			ln := c.Victim(b)
			if ln.Block != b || c.Lookup(b) != ln {
				c.Evict(ln)
				c.Install(ln, b, Valid)
			} else {
				c.Touch(ln)
			}
			touch(b)
			from := len(recent) - ways
			if from < 0 {
				from = 0
			}
			for _, mru := range recent[from:] {
				if c.Lookup(mru) == nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	c := MustNew(2, 2)
	fill(t, c, 1, 2, 3)
	old := c.Lookup(1)
	c.Reset()
	if c.Len() != 0 || c.Lookup(1) != nil {
		t.Fatalf("after Reset: Len %d, Lookup(1) %v", c.Len(), c.Lookup(1))
	}
	c.ForEachMRU(func(ln *Line) { t.Errorf("frame for block %d survived Reset", ln.Block) })
	if v := c.Victim(1); v == old || v.State != Invalid {
		t.Fatalf("Victim after Reset reused a frame from before: %+v", v)
	}
}

// refCache is the cache as it was before the open-addressed index: one
// Go map per set and a fresh Line per frame. TestCacheMatchesReference
// uses it as an independent oracle for victim choice, LRU order and
// lookup.
type refCache struct {
	sets, assoc int
	index       []map[BlockID]*refLine
	head, tail  []*refLine
	used        []int
}

type refLine struct {
	Block      BlockID
	State      State
	Pinned     bool
	set        int
	prev, next *refLine
}

func newRefCache(sets, assoc int) *refCache {
	r := &refCache{sets: sets, assoc: assoc}
	r.Reset()
	return r
}

func (r *refCache) Reset() {
	r.index = make([]map[BlockID]*refLine, r.sets)
	for i := range r.index {
		r.index[i] = map[BlockID]*refLine{}
	}
	r.head = make([]*refLine, r.sets)
	r.tail = make([]*refLine, r.sets)
	r.used = make([]int, r.sets)
}

func (r *refCache) setOf(b BlockID) int { return int(b) & (r.sets - 1) }

func (r *refCache) Len() int {
	n := 0
	for _, u := range r.used {
		n += u
	}
	return n
}

func (r *refCache) Lookup(b BlockID) *refLine { return r.index[r.setOf(b)][b] }

func (r *refCache) Victim(b BlockID) *refLine {
	s := r.setOf(b)
	if ln := r.index[s][b]; ln != nil {
		return ln
	}
	if r.used[s] < r.assoc {
		ln := &refLine{set: s}
		r.used[s]++
		r.pushFront(ln)
		return ln
	}
	for ln := r.tail[s]; ln != nil; ln = ln.prev {
		if !ln.Pinned {
			return ln
		}
	}
	return nil
}

func (r *refCache) Evict(ln *refLine) {
	if old, ok := r.index[ln.set][ln.Block]; ok && old == ln {
		delete(r.index[ln.set], ln.Block)
	}
	ln.State = Invalid
}

func (r *refCache) Install(ln *refLine, b BlockID, st State) {
	ln.Block = b
	ln.State = st
	r.index[ln.set][b] = ln
	r.Touch(ln)
}

func (r *refCache) Invalidate(b BlockID) (State, bool) {
	ln := r.Lookup(b)
	if ln == nil {
		return Invalid, false
	}
	st := ln.State
	r.Evict(ln)
	r.unlink(ln)
	r.pushBack(ln)
	return st, true
}

func (r *refCache) Touch(ln *refLine) {
	r.unlink(ln)
	r.pushFront(ln)
}

func (r *refCache) pushFront(ln *refLine) {
	s := ln.set
	ln.prev, ln.next = nil, r.head[s]
	if r.head[s] != nil {
		r.head[s].prev = ln
	}
	r.head[s] = ln
	if r.tail[s] == nil {
		r.tail[s] = ln
	}
}

func (r *refCache) pushBack(ln *refLine) {
	s := ln.set
	ln.next, ln.prev = nil, r.tail[s]
	if r.tail[s] != nil {
		r.tail[s].next = ln
	}
	r.tail[s] = ln
	if r.head[s] == nil {
		r.head[s] = ln
	}
}

func (r *refCache) unlink(ln *refLine) {
	s := ln.set
	if ln.prev != nil {
		ln.prev.next = ln.next
	} else if r.head[s] == ln {
		r.head[s] = ln.next
	}
	if ln.next != nil {
		ln.next.prev = ln.prev
	} else if r.tail[s] == ln {
		r.tail[s] = ln.prev
	}
	ln.prev, ln.next = nil, nil
}

// TestCacheMatchesReference drives the cache and refCache with one
// random sequence of Victim, Evict, Install, Invalidate, Touch, Lookup,
// pinning and Reset, on a fully associative 1×64 and a 4×16 geometry.
// Blocks come from four times the capacity plus a group that shares one
// home slot in the index, so probe runs grow long and deletions must
// shift lines back. Frames correspond one to one between the two caches
// (a fresh frame on one side must be a fresh frame on the other), and
// after every operation Len, every block's Lookup and each set's
// ForEachMRU order must agree.
func TestCacheMatchesReference(t *testing.T) {
	for _, geo := range []struct{ sets, assoc int }{{1, 64}, {4, 16}} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c, r := MustNew(geo.sets, geo.assoc), newRefCache(geo.sets, geo.assoc)
			capacity := geo.sets * geo.assoc
			universe := make([]BlockID, 0, 5*capacity)
			for b := BlockID(0); b < BlockID(4*capacity); b++ {
				universe = append(universe, b)
			}
			collide := c.home(1 << 20)
			for b := BlockID(1 << 20); len(universe) < cap(universe); b++ {
				if c.home(b) == collide {
					universe = append(universe, b)
				}
			}
			twin, paired := map[*Line]*refLine{}, map[*refLine]bool{}
			same := func(ln *Line, rl *refLine) bool {
				if ln == nil || rl == nil {
					return ln == nil && rl == nil
				}
				return twin[ln] == rl && ln.Block == rl.Block && ln.State == rl.State && ln.Pinned == rl.Pinned
			}
			victim := func(op int, b BlockID) (*Line, *refLine) {
				ln, rl := c.Victim(b), r.Victim(b)
				if _, seen := twin[ln]; ln != nil && !seen && rl != nil && !paired[rl] {
					twin[ln], paired[rl] = rl, true // a fresh frame on both sides
				}
				if !same(ln, rl) {
					t.Fatalf("%dx%d seed %d op %d: Victim(%d) picked a different frame", geo.sets, geo.assoc, seed, op, b)
				}
				return ln, rl
			}
			for op := 0; op < 4000; op++ {
				b := universe[rng.Intn(len(universe))]
				if rng.Intn(3) == 0 {
					b = universe[4*capacity+rng.Intn(len(universe)-4*capacity)]
				}
				switch k := rng.Intn(100); {
				case k < 40: // a miss: victim, evict, install
					ln, rl := victim(op, b)
					if ln == nil {
						continue
					}
					if c.Lookup(b) == ln {
						c.Touch(ln)
						r.Touch(rl)
						continue
					}
					st := State(1 + rng.Intn(2))
					c.Evict(ln)
					r.Evict(rl)
					c.Install(ln, b, st)
					r.Install(rl, b, st)
				case k < 45: // a Victim whose caller gives up
					victim(op, b)
				case k < 60:
					cs, cok := c.Invalidate(b)
					rs, rok := r.Invalidate(b)
					if cs != rs || cok != rok {
						t.Fatalf("%dx%d seed %d op %d: Invalidate(%d) = %v,%v, reference %v,%v",
							geo.sets, geo.assoc, seed, op, b, cs, cok, rs, rok)
					}
				case k < 75:
					if ln := c.Lookup(b); ln != nil {
						c.Touch(ln)
						r.Touch(twin[ln])
					}
				case k < 85: // evict a frame without reinstalling it
					if ln := c.Lookup(b); ln != nil {
						c.Evict(ln)
						r.Evict(twin[ln])
					}
				case k < 99:
					if ln := c.Lookup(b); ln != nil {
						ln.Pinned = !ln.Pinned
						twin[ln].Pinned = ln.Pinned
					}
				default:
					c.Reset()
					r.Reset()
					twin, paired = map[*Line]*refLine{}, map[*refLine]bool{}
				}
				if c.Len() != r.Len() {
					t.Fatalf("%dx%d seed %d op %d: Len %d, reference %d", geo.sets, geo.assoc, seed, op, c.Len(), r.Len())
				}
				for _, x := range universe {
					if !same(c.Lookup(x), r.Lookup(x)) {
						t.Fatalf("%dx%d seed %d op %d: Lookup(%d) disagrees with the reference", geo.sets, geo.assoc, seed, op, x)
					}
				}
				var order []*Line
				c.ForEachMRU(func(ln *Line) { order = append(order, ln) })
				i := 0
				for s := 0; s < geo.sets; s++ {
					for rl := r.head[s]; rl != nil; rl = rl.next {
						if i >= len(order) || !same(order[i], rl) {
							t.Fatalf("%dx%d seed %d op %d: ForEachMRU frame %d disagrees with the reference", geo.sets, geo.assoc, seed, op, i)
						}
						i++
					}
				}
				if i != len(order) {
					t.Fatalf("%dx%d seed %d op %d: ForEachMRU visits %d frames, reference %d", geo.sets, geo.assoc, seed, op, len(order), i)
				}
			}
		}
	}
}
