package coherent

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"dircc/internal/cache"
)

// This file defines the canonical-state surface the model checker
// (internal/check) builds on: a deterministic textual rendering of
// everything that can influence future machine behavior, plus the
// interfaces engines implement to expose their private directory state.
//
// Simulated time is deliberately excluded everywhere — two machines
// that differ only in their clocks behave identically under the
// checker's transport interception, and including time would keep the
// explored state space from ever converging.

// ProtocolState is implemented by engines that can write a canonical
// dump of all engine-private state (directory entries, aggregation
// counters, victim/tombstone buffers). The rendering must be
// deterministic: map iteration must be sorted, and nothing derived
// from simulated time or statistics may appear.
type ProtocolState interface {
	CanonState(w io.Writer)
}

// CoverageEnumerator is implemented by engines whose directory must
// account for every cached copy. CoverageRoots returns the nodes the
// directory entry for b references directly (pointer slots, list head,
// tree roots, exclusive owner). CoverageEdges returns the nodes that
// node n's recorded state for b references (tree children, list next
// pointers, victim/tombstone buffers) — the checker takes the closure
// of roots under edges and requires every stable copy to be inside it
// or be the target of an in-flight teardown message.
type CoverageEnumerator interface {
	CoverageRoots(m *Machine, b BlockID) []NodeID
	CoverageEdges(m *Machine, b BlockID, n NodeID) []NodeID
}

// ShapeChecker is implemented by engines whose directory structure has
// a well-formedness invariant beyond coverage (bounded root count,
// bounded fan-out, acyclicity). CheckShape returns a descriptive error
// when block b's structure is malformed.
type ShapeChecker interface {
	CheckShape(m *Machine, b BlockID) error
}

// Canon renders msg deterministically, covering every field that can
// influence delivery behavior (probe bookkeeping excluded).
func (msg *Msg) Canon() string { return string(msg.AppendCanon(nil)) }

// AppendCanon appends Canon's text to b. The model checker renders
// every in-flight, deferred and gate-queued message of every explored
// state through it, so it formats with strconv rather than fmt.
//
//dirccvet:hotpath
func (msg *Msg) AppendCanon(b []byte) []byte {
	b = msg.Type.appendName(b)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(msg.Src), 10)
	b = append(b, '>')
	b = strconv.AppendInt(b, int64(msg.Dst), 10)
	b = append(b, " b"...)
	b = strconv.AppendUint(b, uint64(msg.Block), 10)
	b = append(b, " r"...)
	b = strconv.AppendInt(b, int64(msg.Requester), 10)
	b = append(b, " a"...)
	b = strconv.AppendInt(b, int64(msg.Aux), 10)
	b = append(b, " p["...)
	for i, p := range msg.Ptrs.Nodes() {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	b = append(b, "] hd"...)
	b = strconv.AppendBool(b, msg.HasData)
	b = append(b, " d"...)
	b = strconv.AppendUint(b, msg.Data, 10)
	b = append(b, " w"...)
	b = strconv.AppendBool(b, msg.Write)
	b = append(b, " at"...)
	b = strconv.AppendInt(b, int64(msg.AckTo), 10)
	b = append(b, " ad"...)
	b = strconv.AppendBool(b, msg.AckDir)
	b = append(b, " sb"...)
	b = strconv.AppendBool(b, msg.SibAck)
	b = append(b, " sw"...)
	b = strconv.AppendBool(b, msg.SelfWave)
	b = append(b, " td"...)
	b = strconv.AppendBool(b, msg.ToDir)
	b = append(b, " g"...)
	b = strconv.AppendBool(b, msg.Gated)
	b = append(b, " rh"...)
	b = strconv.AppendBool(b, msg.RelHome)
	b = append(b, " sq"...)
	return strconv.AppendUint(b, msg.Seq, 10)
}

// CanonState writes a canonical rendering of the machine to buf: cache
// contents in LRU order (frame position determines future victims),
// outstanding transactions, home-gate queues, the authoritative store,
// and — when the engine implements ProtocolState — all engine-private
// directory state. Two machines with equal renderings are behaviorally
// indistinguishable to the model checker, which renders one per
// explored transition: the machine's own part is appended to buf
// without fmt, and the engine writes its part through buf.
func (m *Machine) CanonState(buf *bytes.Buffer) {
	buf.Write(m.appendCanon(buf.AvailableBuffer()))
	if ps, ok := m.proto.(ProtocolState); ok {
		ps.CanonState(buf)
	}
}

// appendCanon appends the machine-owned part of CanonState's text to b.
func (m *Machine) appendCanon(b []byte) []byte {
	for _, node := range m.Nodes {
		b = append(b, 'n')
		b = strconv.AppendInt(b, int64(node.ID), 10)
		b = append(b, ':')
		node.Cache.ForEachMRU(func(ln *cache.Line) {
			if node.Cache.Lookup(ln.Block) != ln || ln.State == cache.Invalid {
				// A free frame: its LRU position still matters, its old
				// tag does not.
				b = append(b, "[-]"...)
				return
			}
			b = append(b, "[b"...)
			b = strconv.AppendUint(b, uint64(ln.Block), 10)
			b = append(b, ' ')
			b = append(b, ln.State.String()...)
			b = append(b, " v"...)
			b = strconv.AppendUint(b, ln.Val, 10)
			b = append(b, " pin"...)
			b = strconv.AppendBool(b, ln.Pinned)
			b = append(b, " m"...)
			b = appendValue(b, ln.Meta)
			b = append(b, ']')
		})
		b = append(b, '\n')
	}
	var slots [txnSlots]*Txn
	for n := range m.txns {
		for _, txn := range m.appendNodeTxns(slots[:0], NodeID(n)) {
			b = append(b, "txn n"...)
			b = strconv.AppendInt(b, int64(n), 10)
			b = append(b, " b"...)
			b = strconv.AppendUint(b, uint64(txn.Block), 10)
			b = append(b, " w"...)
			b = strconv.AppendBool(b, txn.Write)
			b = append(b, " v"...)
			b = strconv.AppendUint(b, txn.Value, 10)
			b = append(b, " served"...)
			b = strconv.AppendBool(b, txn.Served)
			b = append(b, " rmw"...)
			b = strconv.AppendBool(b, txn.RMW != nil)
			b = append(b, " def["...)
			for _, d := range txn.Deferred {
				b = append(b, '{')
				b = d.AppendCanon(b)
				b = append(b, '}')
			}
			b = append(b, "] scratch="...)
			b = appendValue(b, txn.Scratch)
			b = append(b, '\n')
		}
	}
	for home, slots := range m.homes {
		for i := range slots {
			g := &slots[i]
			if !g.busy {
				continue
			}
			b = append(b, "gate b"...)
			b = strconv.AppendUint(b, uint64(m.slotBlock(NodeID(home), i)), 10)
			b = append(b, " busy"...)
			b = strconv.AppendBool(b, g.busy)
			b = append(b, " q["...)
			for _, q := range g.queue {
				b = append(b, '{')
				b = q.AppendCanon(b)
				b = append(b, '}')
			}
			b = append(b, "]\n"...)
		}
	}
	s := m.Store
	for blk := range s.touched {
		if !s.touched[blk] {
			continue
		}
		b = append(b, "mem b"...)
		b = strconv.AppendInt(b, int64(blk), 10)
		b = append(b, '=')
		b = strconv.AppendUint(b, s.cur[blk], 10)
		if s.busy[blk] {
			b = append(b, " (pre-write "...)
			b = strconv.AppendUint(b, s.prev[blk], 10)
			b = append(b, ')')
		}
		b = append(b, '\n')
	}
	return b
}

// appendValue appends v as fmt's %v verb renders it. Line metadata and
// transaction scratch are engine-owned types, which only fmt knows how
// to print; the nil the full-map and limited engines leave costs no
// formatting.
func appendValue(b []byte, v any) []byte {
	if v == nil {
		return append(b, "<nil>"...)
	}
	return fmt.Append(b, v)
}
