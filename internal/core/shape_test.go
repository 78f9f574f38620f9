package core

import (
	"strings"
	"testing"

	"dircc/internal/coherent"
)

func TestSibAck(t *testing.T) {
	cases := []struct {
		idx, m int
		want   bool
	}{
		{0, 1, false}, // lone root: no right sibling
		{0, 2, true},  // root 0 absorbs root 1's ack
		{1, 2, false}, // odd index never absorbs
		{0, 3, true},
		{1, 3, false},
		{2, 3, false}, // even but last: no right sibling
		{2, 4, true},
	}
	for _, c := range cases {
		if got := SibAck(c.idx, c.m); got != c.want {
			t.Errorf("SibAck(%d, %d) = %v, want %v", c.idx, c.m, got, c.want)
		}
	}
}

// edgeMap is a test helper: a static adjacency list.
func edgeMap(adj map[coherent.NodeID][]coherent.NodeID) func(coherent.NodeID) []coherent.NodeID {
	return func(n coherent.NodeID) []coherent.NodeID { return adj[n] }
}

func TestCheckForestShapeValid(t *testing.T) {
	// Two well-formed binary trees under a 2-pointer directory:
	//   0        5
	//  / \        \
	// 1   2        6
	//    / \
	//   3   4
	adj := map[coherent.NodeID][]coherent.NodeID{
		0: {1, 2}, 2: {3, 4}, 5: {6},
	}
	err := CheckForestShape([]coherent.NodeID{0, 5}, 2, 2, true, edgeMap(adj))
	if err != nil {
		t.Errorf("valid forest rejected: %v", err)
	}
}

func TestCheckForestShapeEmpty(t *testing.T) {
	if err := CheckForestShape(nil, 1, 2, true, edgeMap(nil)); err != nil {
		t.Errorf("empty forest rejected: %v", err)
	}
}

func TestCheckForestShapeRootOverflow(t *testing.T) {
	err := CheckForestShape([]coherent.NodeID{0, 1, 2}, 2, 2, true, edgeMap(nil))
	if err == nil || !strings.Contains(err.Error(), "roots exceed") {
		t.Errorf("3 roots in a 2-pointer directory: got %v", err)
	}
}

func TestCheckForestShapeDuplicateRoot(t *testing.T) {
	err := CheckForestShape([]coherent.NodeID{1, 1}, 2, 2, true, edgeMap(nil))
	if err == nil || !strings.Contains(err.Error(), "two root slots") {
		t.Errorf("duplicate root: got %v", err)
	}
}

func TestCheckForestShapeArity(t *testing.T) {
	adj := map[coherent.NodeID][]coherent.NodeID{0: {1, 2, 3}}
	err := CheckForestShape([]coherent.NodeID{0}, 1, 2, true, edgeMap(adj))
	if err == nil || !strings.Contains(err.Error(), "arity") {
		t.Errorf("3 children with arity 2: got %v", err)
	}
}

func TestCheckForestShapeCycle(t *testing.T) {
	adj := map[coherent.NodeID][]coherent.NodeID{0: {1}, 1: {2}, 2: {0}}
	err := CheckForestShape([]coherent.NodeID{0}, 1, 2, true, edgeMap(adj))
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("strict mode missed cycle: got %v", err)
	}
	// The same graph is tolerated once the block has been torn down
	// (strict=false): dangling replacement edges may legally loop.
	if err := CheckForestShape([]coherent.NodeID{0}, 1, 2, false, edgeMap(adj)); err != nil {
		t.Errorf("relaxed mode rejected torn-block cycle: %v", err)
	}
}

func TestCheckForestShapeSelfLoop(t *testing.T) {
	adj := map[coherent.NodeID][]coherent.NodeID{0: {0}}
	err := CheckForestShape([]coherent.NodeID{0}, 1, 2, true, edgeMap(adj))
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("self-loop: got %v", err)
	}
}

// TestCheckForestShapeDiamond: a node reachable from two parents is a
// DAG, not a cycle — strict mode must accept it (the protocol can
// transiently double-link during adoption races; only back edges are
// structural corruption).
func TestCheckForestShapeDiamond(t *testing.T) {
	adj := map[coherent.NodeID][]coherent.NodeID{0: {1, 2}, 1: {3}, 2: {3}}
	if err := CheckForestShape([]coherent.NodeID{0}, 1, 2, true, edgeMap(adj)); err != nil {
		t.Errorf("diamond rejected: %v", err)
	}
}
