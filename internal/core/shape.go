package core

import (
	"fmt"

	"dircc/internal/coherent"
)

// This file holds the pure tree-shape predicates the model checker
// (internal/check) asserts on every reachable state, and the paper's
// Figure 7 acknowledgment pairing that startInvalidation applies.

// SibAck reports whether root idx of m absorbs a sibling
// acknowledgment under the Figure 7 pairing: it is even-indexed and an
// odd right sibling exists. Even-indexed roots acknowledge the home
// directly and odd-indexed roots their even-indexed left sibling, which
// absorbs the extra ack before forwarding its own, so the home collects
// ceil(m/2) acknowledgments instead of m.
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
	var w shapeWalk
	return w.check(roots, maxRoots, arity, strict, edges)
}

// shapeWalk is the scratch of CheckForestShape's depth-first walk, kept
// by an engine so that checking a state allocates nothing once warm:
// each node's color, indexed by node, and the stack of open frames.
type shapeWalk struct {
	color []uint8
	stack []shapeFrame
}

// shapeFrame is one node on the walk's current path and the index of
// the next out-edge to follow.
type shapeFrame struct {
	n    coherent.NodeID
	next int
}

// Tri-color marking: gray = on the current path.
const (
	white uint8 = iota
	gray
	black
)

// check is CheckForestShape on w's scratch.
func (w *shapeWalk) check(roots []coherent.NodeID, maxRoots, arity int, strict bool, edges func(coherent.NodeID) []coherent.NodeID) error {
	if len(roots) > maxRoots {
		return fmt.Errorf("shape: %d roots exceed the %d-pointer directory", len(roots), maxRoots)
	}
	for i, r := range roots {
		for _, q := range roots[:i] {
			if q == r {
				return fmt.Errorf("shape: node %d recorded in two root slots", r)
			}
		}
	}
	clear(w.color)
	for _, r := range roots {
		if w.colorOf(r) != white {
			continue
		}
		w.stack = append(w.stack[:0], shapeFrame{n: r})
		w.paint(r, gray)
		for len(w.stack) > 0 {
			f := &w.stack[len(w.stack)-1]
			out := edges(f.n)
			if len(out) > arity {
				return fmt.Errorf("shape: node %d has %d children, arity is %d", f.n, len(out), arity)
			}
			if f.next >= len(out) {
				w.paint(f.n, black)
				w.stack = w.stack[:len(w.stack)-1]
				continue
			}
			c := out[f.next]
			f.next++
			switch w.colorOf(c) {
			case gray:
				if strict {
					return fmt.Errorf("shape: cycle through node %d", c)
				}
			case white:
				w.paint(c, gray)
				w.stack = append(w.stack, shapeFrame{n: c})
			}
		}
	}
	return nil
}

// colorOf returns node n's color; a node the walk has not grown its
// colors to is white.
func (w *shapeWalk) colorOf(n coherent.NodeID) uint8 {
	if int(n) < len(w.color) {
		return w.color[n]
	}
	return white
}

// paint sets node n's color, growing the colors to cover n.
func (w *shapeWalk) paint(n coherent.NodeID, c uint8) {
	if int(n) >= len(w.color) {
		w.color = append(w.color, make([]uint8, int(n)+1-len(w.color))...)
	}
	w.color[n] = c
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
	roots := e.roots[:0]
	for _, s := range en.slots {
		if s.level < 1 {
			return fmt.Errorf("shape: slot %v has level < 1", s)
		}
		roots = append(roots, s.node)
	}
	e.roots = roots
	return e.checkShape(m, b, roots, e.ptrs, e.arity)
}
