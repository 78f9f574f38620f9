package core

import (
	"io"
	"strconv"

	"dircc/internal/coherent"
)

// Verification hooks for the model checker (internal/check). Canonical
// text is appended with strconv, byte for byte what fmt printed, so the
// checker renders one state per transition without allocating.

func (meta *treeMeta) String() string { return string(meta.AppendCanon(nil)) }

// AppendCanon implements coherent.CanonAppender: "ch[<children>]".
//
//dirccvet:hotpath
func (meta *treeMeta) AppendCanon(b []byte) []byte {
	if meta == nil {
		return append(b, "<nil>"...)
	}
	b = append(b, "ch"...)
	return coherent.AppendNodes(b, meta.children)
}

// CanonState implements coherent.ProtocolState: directory entries with
// their root slots, then the forest's aggregations and tombstones.
func (e *Engine) CanonState(w io.Writer) {
	w.Write(e.appendCanon(coherent.CanonBuffer(w)))
}

//dirccvet:hotpath
func (e *Engine) appendCanon(b []byte) []byte {
	for _, blk := range e.m.DirBlocks() {
		en, _ := e.m.Dir(blk).(*entry)
		if en == nil {
			continue
		}
		if en.state == coherent.DirUncached && len(en.slots) == 0 && en.owner == coherent.NoNode && en.pend == nil {
			continue
		}
		b = coherent.AppendDir(b, blk, en.state)
		b = append(b, " owner"...)
		b = strconv.AppendInt(b, int64(en.owner), 10)
		b = append(b, " slots["...)
		for i, s := range en.slots {
			if i > 0 {
				b = append(b, ' ')
			}
			b = s.appendCanon(b)
		}
		b = append(b, ']')
		if p := en.pend; p != nil {
			b = append(b, " pend{"...)
			b = p.req.AppendCanon(b)
			b = append(b, " stage"...)
			b = strconv.AppendUint(b, uint64(p.stage), 10)
			b = append(b, " wb"...)
			b = strconv.AppendInt(b, int64(p.wbFrom), 10)
			b = append(b, " acks"...)
			b = strconv.AppendInt(b, int64(p.acksLeft), 10)
			b = append(b, '}')
		}
		b = append(b, '\n')
	}
	return e.appendCanonWaves(b)
}

// CoverageRoots implements coherent.CoverageEnumerator: the directory
// knows the roots of the sharing trees plus the exclusive owner.
func (e *Engine) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*entry)
	if en == nil {
		return nil
	}
	roots := e.roots[:0]
	for _, s := range en.slots {
		roots = append(roots, s.node)
	}
	if en.owner != coherent.NoNode {
		seen := false
		for _, r := range roots {
			if r == en.owner {
				seen = true
				break
			}
		}
		if !seen {
			roots = append(roots, en.owner)
		}
	}
	e.roots = roots
	return roots
}
