package list

import (
	"io"
	"strconv"

	"dircc/internal/cache"
	"dircc/internal/coherent"
)

// Verification hooks for the model checker (internal/check). Canonical
// text is appended with strconv, byte for byte what fmt printed, so the
// checker renders one state per transition without allocating.

func (meta *sllMeta) String() string { return string(meta.AppendCanon(nil)) }

func (meta *sciMeta) String() string { return string(meta.AppendCanon(nil)) }

func (ps *purgeState) String() string { return string(ps.AppendCanon(nil)) }

// AppendCanon implements coherent.CanonAppender.
//
//dirccvet:hotpath
func (meta *sllMeta) AppendCanon(b []byte) []byte {
	if meta == nil {
		return append(b, "<nil>"...)
	}
	b = append(b, "next"...)
	return strconv.AppendInt(b, int64(meta.next), 10)
}

// AppendCanon implements coherent.CanonAppender.
//
//dirccvet:hotpath
func (meta *sciMeta) AppendCanon(b []byte) []byte {
	if meta == nil {
		return append(b, "<nil>"...)
	}
	b = append(b, "prev"...)
	b = strconv.AppendInt(b, int64(meta.prev), 10)
	b = append(b, ",next"...)
	return strconv.AppendInt(b, int64(meta.next), 10)
}

// AppendCanon implements coherent.CanonAppender.
//
//dirccvet:hotpath
func (ps *purgeState) AppendCanon(b []byte) []byte {
	if ps == nil {
		return append(b, "<nil>"...)
	}
	b = append(b, "purge@"...)
	return strconv.AppendInt(b, int64(ps.cur), 10)
}

// appendDirHead appends the fields both list engines' directory lines
// start with: "dir b<block> <state> head<n> owner<n>".
func appendDirHead(b []byte, blk coherent.BlockID, state coherent.DirState, head, owner coherent.NodeID) []byte {
	b = coherent.AppendDir(b, blk, state)
	b = append(b, " head"...)
	b = strconv.AppendInt(b, int64(head), 10)
	b = append(b, " owner"...)
	return strconv.AppendInt(b, int64(owner), 10)
}

// CanonState implements coherent.ProtocolState for the singly linked
// list engine. The victim buffers and attach stamps are part of the
// canonical state: a forward reaching a replaced head is served from
// the victim value or deferred according to the stamps, so two states
// differing only there can behave differently. The stamps are counts
// of serialized requests — a function of which operations have
// completed, not of their interleaving — so including them does not
// stop converging interleavings from deduplicating.
func (e *SLL) CanonState(w io.Writer) {
	w.Write(e.appendCanon(coherent.CanonBuffer(w)))
}

//dirccvet:hotpath
func (e *SLL) appendCanon(b []byte) []byte {
	for _, blk := range e.m.DirBlocks() {
		en, _ := e.m.Dir(blk).(*sllEntry)
		if en == nil {
			continue
		}
		if en.state == coherent.DirUncached && en.head == coherent.NoNode && en.owner == coherent.NoNode && en.pend == nil && en.seq == 0 {
			continue
		}
		b = appendDirHead(b, blk, en.state, en.head, en.owner)
		b = append(b, " seq"...)
		b = strconv.AppendUint(b, en.seq, 10)
		if p := en.pend; p != nil {
			b = append(b, " pend{"...)
			b = append(p.req.AppendCanon(b), '}')
		}
		b = append(b, '\n')
	}
	e.vs.keys = coherent.AppendSortedKeys(e.vs.keys[:0], len(e.nodes), func(n int) map[coherent.BlockID]uint64 { return e.nodes[n].gone })
	for _, k := range e.vs.keys {
		b = coherent.AppendRecord(b, "gone", k)
		b = append(b, " = "...)
		b = strconv.AppendUint(b, e.nodes[k.N].gone[k.B], 10)
		b = append(b, '\n')
	}
	e.vs.keys = coherent.AppendSortedKeys(e.vs.keys[:0], len(e.nodes), func(n int) map[coherent.BlockID]uint64 { return e.nodes[n].seqs })
	for _, k := range e.vs.keys {
		b = coherent.AppendRecord(b, "seq", k)
		b = append(b, " = "...)
		b = strconv.AppendUint(b, e.nodes[k.N].seqs[k.B], 10)
		b = append(b, '\n')
	}
	return b
}

// verifyScratch is the storage a list engine's verification hooks
// reuse from call to call, so the model checker renders and checks a
// state without allocating: the sorted per-node keys of a canonical
// dump, and the slices CoverageRoots and CoverageEdges return, each
// overwritten by the engine's next call of the same method.
type verifyScratch struct {
	keys         []coherent.NodeBlock
	roots, edges [2]coherent.NodeID
}

// headOwnerRoots returns the list head and a distinct exclusive owner,
// the nodes a list directory records.
func (vs *verifyScratch) headOwnerRoots(head, owner coherent.NodeID) []coherent.NodeID {
	roots := vs.roots[:0]
	if head != coherent.NoNode {
		roots = append(roots, head)
	}
	if owner != coherent.NoNode && owner != head {
		roots = append(roots, owner)
	}
	return roots
}

// CoverageRoots implements coherent.CoverageEnumerator.
func (e *SLL) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*sllEntry)
	if en == nil {
		return nil
	}
	return e.vs.headOwnerRoots(en.head, en.owner)
}

// CoverageEdges implements coherent.CoverageEnumerator: each live copy
// points at its list successor.
func (e *SLL) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	ln := m.Nodes[n].Cache.Lookup(b)
	if ln == nil || ln.State == cache.Invalid {
		return nil
	}
	if meta, ok := ln.Meta.(*sllMeta); ok && meta.next != coherent.NoNode {
		return append(e.vs.edges[:0], meta.next)
	}
	return nil
}

// CanonState implements coherent.ProtocolState for the SCI engine.
// Tombstones are part of the canonical state: they steer in-flight
// purges around replaced nodes. Tombstones come from the per-node
// maps, attaches and links from the home-resident entries; this
// quiesced reader renders each in (block, node) order.
func (e *SCI) CanonState(w io.Writer) {
	w.Write(e.appendCanon(coherent.CanonBuffer(w)))
}

//dirccvet:hotpath
func (e *SCI) appendCanon(b []byte) []byte {
	blocks := e.m.DirBlocks()
	for _, blk := range blocks {
		en, _ := e.m.Dir(blk).(*sciEntry)
		if en == nil {
			continue
		}
		if en.state == coherent.DirUncached && en.head == coherent.NoNode && en.owner == coherent.NoNode && en.pend == nil {
			continue
		}
		b = appendDirHead(b, blk, en.state, en.head, en.owner)
		if p := en.pend; p != nil {
			b = append(b, " pend{"...)
			b = append(p.req.AppendCanon(b), '}')
		}
		b = append(b, '\n')
	}
	e.vs.keys = coherent.AppendSortedKeys(e.vs.keys[:0], len(e.tombs), func(n int) map[coherent.BlockID]coherent.NodeID { return e.tombs[n] })
	for _, k := range e.vs.keys {
		b = coherent.AppendRecord(b, "tomb", k)
		b = append(b, " -> "...)
		b = strconv.AppendInt(b, int64(e.tombs[k.N][k.B]), 10)
		b = append(b, '\n')
	}
	for _, blk := range blocks {
		en, _ := e.m.Dir(blk).(*sciEntry)
		if en == nil {
			continue
		}
		for _, a := range en.attach {
			b = coherent.AppendRecord(b, "attach", coherent.NodeBlock{N: a.node, B: blk})
			b = append(b, " -> "...)
			b = strconv.AppendInt(b, int64(a.val), 10)
			b = append(b, '\n')
		}
	}
	// The home-resident links are authoritative for eviction splices,
	// so two states differing only in links can behave differently.
	for _, blk := range blocks {
		en, _ := e.m.Dir(blk).(*sciEntry)
		if en == nil {
			continue
		}
		for _, lk := range en.links {
			b = coherent.AppendRecord(b, "link", coherent.NodeBlock{N: lk.node, B: blk})
			b = append(b, " prev"...)
			b = strconv.AppendInt(b, int64(lk.val.prev), 10)
			b = append(b, " next"...)
			b = strconv.AppendInt(b, int64(lk.val.next), 10)
			b = append(b, '\n')
		}
	}
	return b
}

// CoverageRoots implements coherent.CoverageEnumerator.
func (e *SCI) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*sciEntry)
	if en == nil {
		return nil
	}
	return e.vs.headOwnerRoots(en.head, en.owner)
}

// CoverageEdges implements coherent.CoverageEnumerator: a live copy
// points at its successor; a replaced node's tombstone keeps its old
// successor reachable until an in-flight purge consumes it.
func (e *SCI) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	out := e.vs.edges[:0]
	if ln := m.Nodes[n].Cache.Lookup(b); ln != nil && ln.State != cache.Invalid {
		if meta := sciMetaOf(ln); meta != nil && meta.next != coherent.NoNode {
			out = append(out, meta.next)
		}
	}
	if t, ok := e.tombs[n][b]; ok && t != coherent.NoNode {
		out = append(out, t)
	}
	return out
}
