package fullmap

import (
	"io"
	"strconv"

	"dircc/internal/coherent"
)

// Verification hooks for the model checker (internal/check). Canonical
// text is appended with strconv, byte for byte what fmt printed, so the
// checker renders one state per transition without allocating. The
// stall watchdog's DescribeBlock returns the same text for one entry.

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
		b = e.appendEntry(coherent.AppendDir(b, blk), en)
		b = append(b, '\n')
	}
	return b
}

// appendEntry appends the text of one directory entry: "<state>
// owner<n> sharers[<nodes>]", then the pending home transaction if
// there is one.
//
//dirccvet:hotpath
func (e *Engine) appendEntry(b []byte, en *entry) []byte {
	b = append(b, en.state.String()...)
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
	return b
}

// DescribeBlock implements coherent.BlockDumper: the entry's canonical
// text.
func (e *Engine) DescribeBlock(b coherent.BlockID) string {
	en, _ := e.m.Dir(b).(*entry)
	if en == nil {
		return "uncached (no entry)"
	}
	return string(e.appendEntry(nil, en))
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
