package coherent

import (
	"fmt"
	"strconv"

	"dircc/internal/cache"
	"dircc/internal/topology"
)

// NodeID aliases topology.NodeID for convenience throughout the
// coherence layer.
type NodeID = topology.NodeID

// BlockID aliases cache.BlockID.
type BlockID = cache.BlockID

// MsgType enumerates every coherence message used by any protocol
// engine in this repository. Each engine uses a subset.
type MsgType uint8

const (
	// MsgReadReq asks the home for a readable copy (gated at home).
	MsgReadReq MsgType = iota
	// MsgWriteReq asks the home for an exclusive copy (gated at home).
	MsgWriteReq
	// MsgDataReply carries the block to a reader, possibly with
	// piggybacked tree pointers (Ptrs) the requester must adopt.
	MsgDataReply
	// MsgWriteReply grants exclusive ownership and carries the block.
	MsgWriteReply
	// MsgInv invalidates a copy; Aux may name a sibling root the
	// receiver must forward to (the Dir_iTree_k even→odd optimization).
	MsgInv
	// MsgInvAck acknowledges an Inv (aggregated up trees/chains).
	MsgInvAck
	// MsgReplaceInv tears down a subtree/chain below a replaced line;
	// never acknowledged and never reported to the home.
	MsgReplaceInv
	// MsgWbReq asks a dirty owner to write the block back.
	MsgWbReq
	// MsgWbData carries dirty data home (response to WbReq, or a
	// voluntary eviction writeback).
	MsgWbData
	// MsgWbStale tells the home a WbReq found no exclusive copy (the
	// eviction writeback is already in flight and, by per-pair FIFO,
	// has already arrived).
	MsgWbStale
	// MsgFwd forwards a request to another cache (list/tree protocols:
	// head supplies data, or insertion descends a tree).
	MsgFwd
	// MsgHeadReply returns the old head/insertion point to a requester
	// (SCI read miss, STP insertion).
	MsgHeadReply
	// MsgChainData is a cache-to-cache data supply (singly linked list
	// old head, SCI old head).
	MsgChainData
	// MsgPurge asks a list node to invalidate itself and reply with its
	// successor (SCI serial purge).
	MsgPurge
	// MsgPurgeAck answers a purge with the purged node's successor.
	MsgPurgeAck
	// MsgUnlink asks a list neighbor to splice the sender out (SCI
	// replacement).
	MsgUnlink
	// MsgDone tells the home a requester finished attaching itself, so
	// the home may release the block gate (list/tree insertion).
	MsgDone
	// MsgUpdate carries a written value to a sharer (update-based
	// protocol variants); acknowledged like Inv.
	MsgUpdate
)

var msgTypeNames = [...]string{
	"ReadReq", "WriteReq", "DataReply", "WriteReply", "Inv", "InvAck",
	"ReplaceInv", "WbReq", "WbData", "WbStale", "Fwd", "HeadReply",
	"ChainData", "Purge", "PurgeAck", "Unlink", "Done", "Update",
}

func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) {
		return msgTypeNames[t]
	}
	return string(t.appendName(nil))
}

// appendName appends t's String text to b. It formats without fmt, so
// Msg.AppendCanon, which allocguard keeps allocation-free, can call it.
func (t MsgType) appendName(b []byte) []byte {
	if int(t) < len(msgTypeNames) {
		return append(b, msgTypeNames[t]...)
	}
	b = append(b, "MsgType("...)
	b = strconv.AppendUint(b, uint64(t), 10)
	return append(b, ')')
}

// Msg is a coherence message. Fields beyond Type/Src/Dst/Block are
// protocol-specific and documented by the engines that use them.
//
// Engines build a Msg as a value and hand it to Machine.Send, which
// copies it into a record the machine owns and recycles after the
// record's last dispatch. The *Msg a handler receives is that record:
// it is valid only during the call. An engine keeps what it needs past
// the handler by value (a Msg copy or its fields), never the pointer.
type Msg struct {
	Type  MsgType
	Src   NodeID
	Dst   NodeID
	Block BlockID

	// Requester is the node whose processor initiated the transaction
	// this message belongs to (for forwarded requests and replies).
	Requester NodeID
	// Aux carries one extra node pointer (odd sibling root, old head,
	// purge successor, ...). Negative means "none".
	Aux NodeID
	// Ptrs carries piggybacked pointers (Dir_iTree_k child handoff).
	Ptrs Ptrs
	// HasData marks the message as carrying the 8-byte block payload.
	HasData bool
	// Data is the simulated block value (used by the monitor).
	Data uint64
	// Write distinguishes the flavor of a forwarded request.
	Write bool
	// AckTo names the node an Inv's acknowledgment must be sent to
	// (tree protocols aggregate acks bottom-up). AckDir routes that ack
	// to the directory controller rather than a cache.
	AckTo  NodeID
	AckDir bool
	// SibAck tells an even-indexed tree root that its odd sibling will
	// also acknowledge to it (the Dir_iTree_k home-offload pairing).
	SibAck bool
	// SelfWave tags invalidations (and their acks) belonging to a
	// writer's own-subtree sweep, so the writer can tell them apart
	// from acks it aggregates as a parent in a concurrent regular wave.
	SelfWave bool
	// ToDir routes delivery to the directory controller rather than
	// the cache controller at Dst.
	ToDir bool
	// Gated routes a directory-bound message through the per-block
	// home gate (request serialization).
	Gated bool
	// Seq is the directory serialization stamp of the request this
	// message serves: homes that keep a per-block request counter stamp
	// forwards and replies with it, and caches compare stamps to tell
	// which incarnation of a replaced line a late forward was aimed at.
	// Bookkeeping only (like Data): it does not add to the wire size.
	Seq uint64
	// RelHome releases the block's home gate at the instant this
	// message is delivered (the write-grant reply: the gate is held
	// until the writer confirms installation). The machine performs the
	// release as a companion event at the home, sequenced immediately
	// after the delivery, so the receiving handler never has to reach
	// across the machine to the home's gate state — which would break
	// lane affinity under the sharded kernel.
	RelHome bool

	// serve is what a memory reply marks as it leaves the home (see
	// ReplyFromMemory); zero on every other record. Bookkeeping: Canon
	// leaves it out.
	serve Serve
	// probeID links this message's send and deliver events in the
	// observability trace; zero when probes are off.
	probeID int64
	// mach is the machine that sent the message. The message is its own
	// delivery event (msgDelivery) and fires its companions through it.
	// Bookkeeping, like probeID: Canon leaves it out.
	mach *Machine
	// next links the record into its lane's free list while it is not
	// in use (see Machine.newMsg). Bookkeeping: Canon leaves it out.
	next *Msg
}

// NoNode is the sentinel for "no node" in Aux and pointer slots.
const NoNode NodeID = -1

// Bytes returns the message size on the wire under cfg.
func (m *Msg) Bytes(cfg Config) int {
	n := cfg.HeaderBytes
	if m.HasData {
		n += cfg.BlockBytes
	}
	n += cfg.PtrBytes * m.Ptrs.Len()
	return n
}

// Ptrs is a message's piggybacked node pointers, held inline: a reply
// hands off at most two tree roots (Dir_iTree_k's case 3 adopts two,
// STP's re-rooting one), so a message carries them without a slice of
// its own, and copying a message copies them.
type Ptrs struct {
	nodes [2]NodeID
	n     uint8
}

// PtrsOf returns nodes, at most two, as a message's pointers.
func PtrsOf(nodes ...NodeID) Ptrs {
	var p Ptrs
	for _, n := range nodes {
		p.Add(n)
	}
	return p
}

// Add appends node n. A message carries at most two pointers; a third
// panics.
func (p *Ptrs) Add(n NodeID) {
	if int(p.n) == len(p.nodes) {
		panic("coherent: a message carries at most two pointers")
	}
	p.nodes[p.n] = n
	p.n++
}

// Len returns the number of pointers.
func (p Ptrs) Len() int { return int(p.n) }

// Nodes returns the pointers in order, as a view of p's own storage.
func (p *Ptrs) Nodes() []NodeID { return p.nodes[:p.n] }

// String renders the pointers as fmt renders a slice of them: "[1 3]".
func (p Ptrs) String() string { return fmt.Sprint(p.nodes[:p.n]) }
