package core

import (
	"fmt"

	"dircc/internal/coherent"
)

// This file holds the pure tree-shape predicates the model checker
// (internal/check) asserts on every reachable state, and the paper's
// Figure 7 acknowledgment-routing plan, shared by startInvalidation and
// the checker's cross-validation of pending ack counts.

// AckPlan computes the Figure 7 acknowledgment routing for an
// invalidation wave over m roots: even-indexed roots acknowledge the
// home directly, odd-indexed roots acknowledge their even-indexed left
// sibling (which absorbs the extra ack before forwarding its own), so
// the home collects homeFanIn = ceil(m/2) acknowledgments instead of
// m. ackTo[i] is the sibling index root i acknowledges to, or -1 for
// the home.
func AckPlan(m int) (homeFanIn int, ackTo []int) {
	ackTo = make([]int, m)
	for i := range ackTo {
		if i%2 == 0 {
			ackTo[i] = -1
			homeFanIn++
		} else {
			ackTo[i] = i - 1
		}
	}
	return homeFanIn, ackTo
}

// SibAck reports whether root idx of m absorbs a sibling
// acknowledgment under the Figure 7 pairing: it is even-indexed and an
// odd right sibling exists.
func SibAck(idx, m int) bool { return idx%2 == 0 && idx+1 < m }

// CheckForestShape validates the structural well-formedness of a
// pointer forest: at most maxRoots roots, no duplicate roots, at most
// arity out-edges per node, and — when strict — no cycle reachable
// from the roots. edges returns the live out-edges of a node.
//
// strict=false relaxes only the acyclicity requirement: silent
// replacement followed by a re-read legitimately leaves a dangling
// child pointer at the old parent that can point back up to the
// re-inserted node (the protocol tolerates such edges by always
// acknowledging duplicate invalidations), so acyclicity is only an
// invariant for blocks that have never had a teardown.
func CheckForestShape(roots []coherent.NodeID, maxRoots, arity int, strict bool, edges func(coherent.NodeID) []coherent.NodeID) error {
	if len(roots) > maxRoots {
		return fmt.Errorf("shape: %d roots exceed the %d-pointer directory", len(roots), maxRoots)
	}
	seenRoot := make(map[coherent.NodeID]bool, len(roots))
	for _, r := range roots {
		if seenRoot[r] {
			return fmt.Errorf("shape: node %d recorded in two root slots", r)
		}
		seenRoot[r] = true
	}
	// Iterative DFS with tri-color marking: gray = on the current path.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[coherent.NodeID]int)
	type frame struct {
		n    coherent.NodeID
		next int
	}
	for _, r := range roots {
		if color[r] != white {
			continue
		}
		stack := []frame{{n: r}}
		color[r] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			out := edges(f.n)
			if len(out) > arity {
				return fmt.Errorf("shape: node %d has %d children, arity is %d", f.n, len(out), arity)
			}
			if f.next >= len(out) {
				color[f.n] = black
				stack = stack[:len(stack)-1]
				continue
			}
			c := out[f.next]
			f.next++
			switch color[c] {
			case gray:
				if strict {
					return fmt.Errorf("shape: cycle through node %d", c)
				}
			case white:
				color[c] = gray
				stack = append(stack, frame{n: c})
			}
		}
	}
	return nil
}

// CheckShape implements coherent.ShapeChecker for Dir_iTree_k: at most
// i roots, all distinct, at most k live children per copy. Acyclicity
// is enforced strictly until the first teardown touches the block (see
// CheckForestShape).
func (e *Engine) CheckShape(m *coherent.Machine, b coherent.BlockID) error {
	en, _ := m.Dir(b).(*entry)
	if en == nil {
		return nil
	}
	roots := make([]coherent.NodeID, 0, len(en.slots))
	for _, s := range en.slots {
		if s.level < 1 {
			return fmt.Errorf("shape: slot %v has level < 1", s)
		}
		roots = append(roots, s.node)
	}
	return e.checkShape(m, b, roots, e.ptrs, e.arity)
}
