package coherent

import (
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
	Ptrs []NodeID
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

	// probeID links this message's send and deliver events in the
	// observability trace; zero when probes are off.
	probeID int64
}

// NoNode is the sentinel for "no node" in Aux and pointer slots.
const NoNode NodeID = -1

// Bytes returns the message size on the wire under cfg.
func (m *Msg) Bytes(cfg Config) int {
	n := cfg.HeaderBytes
	if m.HasData {
		n += cfg.BlockBytes
	}
	n += cfg.PtrBytes * len(m.Ptrs)
	return n
}
