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
