package limited

import (
	"io"
	"strconv"

	"dircc/internal/coherent"
)

// Verification hooks for the model checker (internal/check). Canonical
// text is appended with strconv, byte for byte what fmt printed, so the
// checker renders one state per transition without allocating. The
// stall watchdog's DescribeBlock returns the same text for one entry.

// CanonState implements coherent.ProtocolState. The round-robin cursor
// is included: it selects future overflow victims.
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
		if en.state == coherent.DirUncached && len(en.ptrs) == 0 && len(en.spill) == 0 && en.owner == coherent.NoNode &&
			!en.broadcast && en.rr == 0 && en.pend == nil {
			continue
		}
		b = en.appendCanon(coherent.AppendDir(b, blk))
		b = append(b, '\n')
	}
	return b
}

// appendCanon appends the entry's text: "<state> owner<n> ptrs[<nodes>]
// sw[<spilled>] bc<broadcast> rr<cursor>", then the pending home
// transaction if there is one.
//
//dirccvet:hotpath
func (en *entry) appendCanon(b []byte) []byte {
	b = append(b, en.state.String()...)
	b = append(b, " owner"...)
	b = strconv.AppendInt(b, int64(en.owner), 10)
	b = append(b, " ptrs"...)
	b = coherent.AppendNodes(b, en.ptrs)
	b = append(b, " sw"...)
	b = coherent.AppendNodes(b, en.spill)
	b = append(b, " bc"...)
	b = strconv.AppendBool(b, en.broadcast)
	b = append(b, " rr"...)
	b = strconv.AppendInt(b, int64(en.rr), 10)
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
	return b
}

// DescribeBlock implements coherent.BlockDumper: the entry's canonical
// text.
func (e *Engine) DescribeBlock(b coherent.BlockID) string {
	en, _ := e.m.Dir(b).(*entry)
	if en == nil {
		return "uncached (no entry)"
	}
	return string(en.appendCanon(nil))
}

// CoverageRoots implements coherent.CoverageEnumerator. With the
// Dir_iB overflow bit set, copies are unrecorded by design and any
// node may legally hold one; otherwise the pointers, the LimitLESS
// spilled set and the owner together record every copy.
func (e *Engine) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*entry)
	if en == nil {
		return nil
	}
	roots := e.roots[:0]
	if en.broadcast {
		for i := range m.Cfg.Procs {
			roots = append(roots, coherent.NodeID(i))
		}
	} else {
		roots = append(append(roots, en.ptrs...), en.spill...)
		if en.owner != coherent.NoNode {
			roots = append(roots, en.owner)
		}
	}
	e.roots = roots
	return roots
}

// CoverageEdges implements coherent.CoverageEnumerator: limited
// directory caches hold no pointers to other copies.
func (e *Engine) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	return nil
}
