package core

import (
	"fmt"
	"io"

	"dircc/internal/coherent"
)

// Verification hooks for the model checker (internal/check).

func (meta *treeMeta) String() string { return fmt.Sprintf("ch%v", meta.children) }

// CanonState implements coherent.ProtocolState: directory entries with
// their root slots, then the forest's aggregations and tombstones.
func (e *Engine) CanonState(w io.Writer) {
	for _, b := range e.m.DirBlocks() {
		en, _ := e.m.Dir(b).(*entry)
		if en == nil {
			continue
		}
		if en.state == uncached && len(en.slots) == 0 && en.owner == coherent.NoNode && en.pend == nil {
			continue
		}
		fmt.Fprintf(w, "dir b%d %s owner%d slots%v", b, en.state, en.owner, en.slots)
		if p := en.pend; p != nil {
			fmt.Fprintf(w, " pend{%s stage%d wb%d acks%d}", p.req.Canon(), p.stage, p.wbFrom, p.acksLeft)
		}
		fmt.Fprintln(w)
	}
	e.canonWaves(w)
}

// CoverageRoots implements coherent.CoverageEnumerator: the directory
// knows the roots of the sharing trees plus the exclusive owner.
func (e *Engine) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*entry)
	if en == nil {
		return nil
	}
	var roots []coherent.NodeID
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
	return roots
}
