package coherent

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
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
// from simulated time or statistics may appear. The model checker
// renders one state per explored transition and passes a
// *bytes.Buffer, so an engine appends its text into the buffer's spare
// capacity (CanonBuffer) rather than formatting through fmt.
type ProtocolState interface {
	CanonState(w io.Writer)
}

// CanonAppender is implemented by the engine-owned values the machine
// renders in its canonical state: line metadata (cache.Line.Meta) and
// transaction scratch (Txn.Scratch). AppendCanon appends the value's
// text to b. A nil pointer renders as "<nil>", as fmt printed it.
type CanonAppender interface {
	AppendCanon(b []byte) []byte
}

// CanonBuffer returns the bytes an engine's CanonState appends to: the
// spare capacity of w when it is a *bytes.Buffer, which the engine
// hands back with w.Write, else nil.
func CanonBuffer(w io.Writer) []byte {
	if buf, ok := w.(*bytes.Buffer); ok {
		return buf.AvailableBuffer()
	}
	return nil
}

// NodeBlock names one node's per-block record in an engine's per-node
// maps (tombstones, victim buffers, aggregations).
type NodeBlock struct {
	N NodeID
	B BlockID
}

// AppendSortedKeys appends the keys of the per-node maps, node n's map
// being mapOf(n) for n below nodes, to dst in block then node order: the
// order canonical dumps list per-node records in. Reusing dst keeps a
// warm caller from allocating.
func AppendSortedKeys[V any](dst []NodeBlock, nodes int, mapOf func(n int) map[BlockID]V) []NodeBlock {
	start := len(dst)
	for n := range nodes {
		for b := range mapOf(n) {
			dst = append(dst, NodeBlock{N: NodeID(n), B: b})
		}
	}
	slices.SortFunc(dst[start:], func(x, y NodeBlock) int {
		return cmp.Or(cmp.Compare(x.B, y.B), cmp.Compare(x.N, y.N))
	})
	return dst
}

// DirState is the stable state of a directory entry, the same three in
// every engine.
type DirState uint8

const (
	// DirUncached: no cache holds the block.
	DirUncached DirState = iota
	// DirShared: caches may hold read-only copies.
	DirShared
	// DirDirty: one cache holds the block exclusively.
	DirDirty
)

// dirStateNames are the names canonical text and dumps print.
var dirStateNames = [...]string{"uncached", "shared", "dirty"}

func (s DirState) String() string {
	if int(s) < len(dirStateNames) {
		return dirStateNames[s]
	}
	return "DirState(" + strconv.Itoa(int(s)) + ")"
}

// AppendDir appends "dir b<block> ", the start of an engine's
// canonical line for one directory entry. The rest of the line is the
// entry's own text, which the engine's DescribeBlock also returns.
func AppendDir(b []byte, blk BlockID) []byte {
	b = append(b, "dir b"...)
	b = strconv.AppendUint(b, uint64(blk), 10)
	return append(b, ' ')
}

// AppendRecord appends "<label> n<node> b<block>", the start of the
// canonical line of one node's record for one block.
func AppendRecord(b []byte, label string, k NodeBlock) []byte {
	b = append(b, label...)
	b = append(b, " n"...)
	b = strconv.AppendInt(b, int64(k.N), 10)
	b = append(b, " b"...)
	return strconv.AppendUint(b, uint64(k.B), 10)
}

// AppendNodes appends nodes as fmt's %v renders a []NodeID: "[1 2]".
func AppendNodes(b []byte, nodes []NodeID) []byte {
	b = append(b, '[')
	for i, n := range nodes {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, ']')
}

// CoverageEnumerator is implemented by engines whose directory must
// account for every cached copy. CoverageRoots returns the nodes the
// directory entry for b references directly (pointer slots, list head,
// tree roots, exclusive owner). CoverageEdges returns the nodes that
// node n's recorded state for b references (tree children, list next
// pointers, victim/tombstone buffers) — the checker takes the closure
// of roots under edges and requires every stable copy to be inside it
// or be the target of an in-flight teardown message. Both may return
// storage the engine reuses on its next call of the same method, so
// that checking a state allocates nothing: read the slice before asking
// again, and do not modify it.
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
// every in-flight, deferred, gate-queued and pending message of every
// explored state through it, so it formats with strconv rather than
// fmt.
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
	b = append(b, " p"...)
	b = AppendNodes(b, msg.Ptrs.Nodes())
	b = append(b, " hd"...)
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
// without fmt, and the engine appends its part to buf the same way.
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

// appendValue appends line metadata or transaction scratch v: "<nil>"
// for the nil the full-map and limited engines leave, else the text of
// v's AppendCanon.
//
//dirccvet:hotpath
func appendValue(b []byte, v any) []byte {
	if v == nil {
		return append(b, "<nil>"...)
	}
	ca, ok := v.(CanonAppender)
	if !ok {
		//dirccvet:allow allocguard panic formatting is off the steady-state path
		panic(fmt.Sprintf("coherent: %T in line metadata or transaction scratch does not implement CanonAppender", v))
	}
	return ca.AppendCanon(b)
}
