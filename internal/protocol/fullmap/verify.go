package fullmap

import (
	"fmt"
	"io"

	"dircc/internal/coherent"
)

// Verification hooks for the model checker (internal/check).

// CanonState implements coherent.ProtocolState: a deterministic dump of
// every directory entry that differs from the uncached zero state.
func (e *Engine) CanonState(w io.Writer) {
	for _, b := range e.m.DirBlocks() {
		en, ok := e.m.Dir(b).(*entry)
		if !ok {
			continue
		}
		if en.state == uncached && en.sharers.count() == 0 && en.owner == coherent.NoNode && en.pend == nil {
			continue
		}
		fmt.Fprintf(w, "dir b%d %s owner%d sharers%v", b, en.state, en.owner, sortedNodes(en.sharers))
		if p := en.pend; p != nil {
			fmt.Fprintf(w, " pend{%s wantWb%d acks%d}", p.req.Canon(), p.wantWb, p.acksLeft)
		}
		fmt.Fprintln(w)
	}
}

// CoverageRoots implements coherent.CoverageEnumerator: the presence
// bits plus the owner pointer record every copy directly.
func (e *Engine) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*entry)
	if en == nil {
		return nil
	}
	roots := sortedNodes(en.sharers)
	if en.owner != coherent.NoNode {
		roots = append(roots, en.owner)
	}
	return roots
}

// CoverageEdges implements coherent.CoverageEnumerator: full-map caches
// hold no pointers to other copies.
func (e *Engine) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	return nil
}

// sortedNodes returns the present nodes in node order (never nil, so an
// empty set renders as []).
func sortedNodes(p presence) []coherent.NodeID {
	return p.appendNodes(make([]coherent.NodeID, 0, p.count()))
}
