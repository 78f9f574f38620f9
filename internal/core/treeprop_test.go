package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dircc/internal/coherent"
	"dircc/internal/treemath"
)

// record() drives the directory pointer algorithm; these properties
// connect the executable protocol to the paper's analytical Section 3.

// applyRecord simulates a sequence of read-miss recordings against a
// bare directory entry, maintaining a host-side forest mirror so the
// properties can be checked without a machine. Returns the forest as a
// child map.
func applyRecord(e *Engine, en *entry, arrivals []coherent.NodeID) map[coherent.NodeID][]coherent.NodeID {
	children := make(map[coherent.NodeID][]coherent.NodeID)
	for _, req := range arrivals {
		handoff := e.record(nil, en, req)
		if handoff.Len() > 0 {
			children[req] = append(children[req], handoff.Nodes()...)
		}
	}
	return children
}

// Engine.record must not touch the machine; guard that assumption.
func TestRecordIsMachineFree(t *testing.T) {
	e := New(4, 2)
	en := &entry{owner: coherent.NoNode}
	// A nil machine would panic on any dereference.
	for n := coherent.NodeID(0); n < 20; n++ {
		e.record(nil, en, n)
	}
	if len(en.slots) > 4 {
		t.Fatalf("slots overflowed: %v", en.slots)
	}
}

// Property: for any arrival sequence of distinct nodes, the forest
// covers every node exactly once, respects arity, and keeps at most i
// slots.
func TestQuickRecordCoverage(t *testing.T) {
	f := func(seed int64, iRaw, nRaw uint8) bool {
		i := int(iRaw%6) + 1
		n := int(nRaw%60) + 1
		rng := rand.New(rand.NewSource(seed))
		e := New(i, 2)
		en := &entry{owner: coherent.NoNode}
		arrivals := rng.Perm(n)
		nodes := make([]coherent.NodeID, n)
		for idx, a := range arrivals {
			nodes[idx] = coherent.NodeID(a)
		}
		children := applyRecord(e, en, nodes)
		if len(en.slots) > i {
			return false
		}
		// Walk the forest.
		seen := map[coherent.NodeID]int{}
		var walk func(x coherent.NodeID)
		walk = func(x coherent.NodeID) {
			seen[x]++
			for _, c := range children[x] {
				walk(c)
			}
		}
		for _, s := range en.slots {
			walk(s.node)
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		for _, ch := range children {
			if len(ch) > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the recorded slot level never understates the real tree
// height, and the real height stays within the paper's near-balance
// analysis — a level-j tree of Dir_iTree_2 holds at least as many nodes
// as a chain would (level <= population) and at most a perfect binary
// tree (population <= 2^level - 1).
func TestQuickRecordBalanceBounds(t *testing.T) {
	f := func(seed int64, iRaw, nRaw uint8) bool {
		i := int(iRaw%6) + 1
		n := int(nRaw%80) + 1
		rng := rand.New(rand.NewSource(seed))
		e := New(i, 2)
		en := &entry{owner: coherent.NoNode}
		perm := rng.Perm(n)
		nodes := make([]coherent.NodeID, n)
		for idx, a := range perm {
			nodes[idx] = coherent.NodeID(a)
		}
		children := applyRecord(e, en, nodes)
		for _, s := range en.slots {
			pop, height := 0, 0
			var walk func(x coherent.NodeID, d int)
			walk = func(x coherent.NodeID, d int) {
				pop++
				if d > height {
					height = d
				}
				for _, c := range children[x] {
					walk(c, d+1)
				}
			}
			walk(s.node, 1)
			if height > s.level {
				return false // recorded level understates height
			}
			if int64(pop) > treemath.BinaryTreeNodes(s.level) {
				return false // denser than a perfect binary tree
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: sequential arrival populations stay within the paper's
// Table 4 capacity for the observed maximum level: with i pointers and
// max slot level L, the total recorded nodes cannot exceed
// Σ_p N_p(L) (the loose reading of Table 4).
func TestQuickRecordWithinTable4(t *testing.T) {
	f := func(iRaw, nRaw uint8) bool {
		i := int(iRaw%6) + 1
		n := int(nRaw%100) + 1
		e := New(i, 2)
		en := &entry{owner: coherent.NoNode}
		nodes := make([]coherent.NodeID, n)
		for idx := range nodes {
			nodes[idx] = coherent.NodeID(idx)
		}
		applyRecord(e, en, nodes)
		maxLevel := 0
		for _, s := range en.slots {
			if s.level > maxLevel {
				maxLevel = s.level
			}
		}
		return int64(n) <= treemath.MaxNodes(i, maxLevel)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The paper's 1024-node claim, executed: recording 1024 sequential
// sharers under Dir_4Tree_2 must not grow any tree beyond 12 levels.
func TestThousandSharersStayWithinTwelveLevels(t *testing.T) {
	e := New(4, 2)
	en := &entry{owner: coherent.NoNode}
	for n := 0; n < 1024; n++ {
		e.record(nil, en, coherent.NodeID(n))
	}
	for _, s := range en.slots {
		if s.level > 12 {
			t.Fatalf("slot %v exceeds the paper's 12-level bound for 1024 nodes", s)
		}
	}
}
