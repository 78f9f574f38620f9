package fullmap

import (
	"io"
	"strconv"

	"dircc/internal/coherent"
)

// Verification hooks for the model checker (internal/check). Canonical
// text is appended with strconv, byte for byte what fmt printed, so the
// checker renders one state per transition without allocating.

// CanonState implements coherent.ProtocolState: a deterministic dump of
// every directory entry that differs from the uncached zero state.
func (e *Engine) CanonState(w io.Writer) {
	w.Write(e.appendCanon(coherent.CanonBuffer(w)))
}

//dirccvet:hotpath
func (e *Engine) appendCanon(b []byte) []byte {
	for _, blk := range e.m.DirBlocks() {
		en, ok := e.m.Dir(blk).(*entry)
		if !ok {
			continue
		}
		if en.state == coherent.DirUncached && en.sharers.count() == 0 && en.owner == coherent.NoNode && en.pend == nil {
			continue
		}
		b = coherent.AppendDir(b, blk, en.state)
		b = append(b, " owner"...)
		b = strconv.AppendInt(b, int64(en.owner), 10)
		b = append(b, " sharers"...)
		e.roots = en.sharers.appendNodes(e.roots[:0])
		b = coherent.AppendNodes(b, e.roots)
		if p := en.pend; p != nil {
			b = append(b, " pend{"...)
			b = p.req.AppendCanon(b)
			b = append(b, " wantWb"...)
			b = strconv.AppendInt(b, int64(p.wantWb), 10)
			b = append(b, " acks"...)
			b = strconv.AppendInt(b, int64(p.acksLeft), 10)
			b = append(b, '}')
		}
		b = append(b, '\n')
	}
	return b
}

// CoverageRoots implements coherent.CoverageEnumerator: the presence
// bits plus the owner pointer record every copy directly.
func (e *Engine) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*entry)
	if en == nil {
		return nil
	}
	roots := en.sharers.appendNodes(e.roots[:0])
	if en.owner != coherent.NoNode {
		roots = append(roots, en.owner)
	}
	e.roots = roots
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
