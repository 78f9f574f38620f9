package limited

import (
	"fmt"
	"io"
	"slices"

	"dircc/internal/coherent"
)

// Verification hooks for the model checker (internal/check).

// CanonState implements coherent.ProtocolState. The round-robin cursor
// is included: it selects future overflow victims.
func (e *Engine) CanonState(w io.Writer) {
	for _, b := range e.m.DirBlocks() {
		en, ok := e.m.Dir(b).(*entry)
		if !ok {
			continue
		}
		if en.state == uncached && len(en.ptrs) == 0 && len(en.spill) == 0 && en.owner == coherent.NoNode &&
			!en.broadcast && en.rr == 0 && en.pend == nil {
			continue
		}
		fmt.Fprintf(w, "dir b%d %s owner%d ptrs%v sw%v bc%v rr%d", b, en.state, en.owner, en.ptrs, en.spill, en.broadcast, en.rr)
		if p := en.pend; p != nil {
			fmt.Fprintf(w, " pend{%s stage%d wb%d acks%d}", p.req.Canon(), p.stage, p.wbFrom, p.acksLeft)
		}
		fmt.Fprintln(w)
	}
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
	if en.broadcast {
		all := make([]coherent.NodeID, m.Cfg.Procs)
		for i := range all {
			all[i] = coherent.NodeID(i)
		}
		return all
	}
	roots := slices.Concat(en.ptrs, en.spill)
	if en.owner != coherent.NoNode {
		roots = append(roots, en.owner)
	}
	return roots
}

// CoverageEdges implements coherent.CoverageEnumerator: limited
// directory caches hold no pointers to other copies.
func (e *Engine) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	return nil
}
