// Package list implements the linked-list coherence baselines of the
// paper's Section 2.2: the Stanford/Thapar singly linked list protocol
// and the IEEE 1596 Scalable Coherent Interface (SCI) doubly linked
// list, both Dir_1Tree_1 schemes in the paper's nomenclature.
package list

import (
	"dircc/internal/cache"
	"dircc/internal/coherent"
)

// sllEntry is the singly-linked home state: the head pointer plus the
// per-block request stamp.
type sllEntry struct {
	state coherent.DirState
	head  coherent.NodeID
	owner coherent.NodeID
	pend  *sllPending
	// seq counts the gated requests this home has serialized for the
	// block. Every head record is made by exactly one request, so the
	// stamp names list positions: a forward aimed at the record made by
	// request s always carries stamp s+1 (only the immediately following
	// request is ever forwarded to that record), which is what lets a
	// replaced head tell a forward aimed at its old incarnation from one
	// aimed at its in-flight re-read.
	seq uint64
}

// sllPending is a write in progress at the home (the gate is held). It
// keeps the request by value: the delivered record is recycled when the
// handler returns.
type sllPending struct {
	req coherent.Msg
}

// sllMeta is the per-line state: the forward pointer toward the tail.
type sllMeta struct {
	next coherent.NodeID
}

// SLL is the singly linked list protocol engine.
//
// Read miss: request to home (1), forward to the current head (1), the
// head supplies the data and the requester becomes the new head (1) —
// 3 messages, or 2 when the list is empty. Write miss: the invalidation
// walks the chain sequentially, one message per copy, and only the tail
// acknowledges — P+3 messages including the explicit ownership grant
// (the paper's P+2 folds the grant into the tail acknowledgment).
// Replacement tears down the list suffix below the replaced node with
// Replace_INV, mirroring the forward-pointer-only design.
//
// One simulation liberty, documented in DESIGN.md: forwarded requests
// carry the home's copy of the block in their bookkeeping fields so a
// silently-replaced head can still satisfy a forward without a retry
// protocol; message sizes on the wire count only what the real protocol
// sends.
type SLL struct {
	// m is the bound machine (coherent.Preparer); directory entries
	// are reached through m.Dir/m.SetDir so they are home-resident,
	// which is what makes the engine's state lane-local under the
	// sharded kernel.
	m *coherent.Machine
	// nodes[n] is node n's victim buffer and install stamps. Only node
	// n's lane touches it.
	nodes []sllNode
	// vs is the verification hooks' scratch.
	vs verifyScratch
}

// NewSLL returns a singly linked list engine.
func NewSLL() *SLL { return &SLL{} }

// sllNode is one node's entry in SLL.nodes. Its maps are allocated on
// the node's first write.
type sllNode struct {
	// gone is the node's victim buffer: the coherent value each
	// silently-replaced line held at eviction, cleared when a fresh
	// copy installs. A forward that reaches a replaced head is served
	// from here — the home snapshot riding the forward may predate a
	// demoting owner's in-flight writeback, and deferring behind the
	// node's own re-read would deadlock (the re-read's supplier can be
	// the very requester the forward carries).
	gone map[coherent.BlockID]uint64
	// seqs records the directory stamp (sllEntry.seq) of the request
	// that installed the node's current — or, after a replacement, most
	// recent — copy of each block. Stamps order list attachment: a
	// replacement teardown only invalidates copies whose stamp is below
	// the evictor's, and a replaced head serves a forward from its
	// victim buffer only when the stamp says the forward was aimed at
	// the buffered incarnation.
	seqs map[coherent.BlockID]uint64
}

// Prepare implements coherent.Preparer: bind the machine and allocate
// one record per node, so each lane mutates only its own.
func (e *SLL) Prepare(m *coherent.Machine) {
	e.m = m
	e.nodes = make([]sllNode, len(m.Nodes))
}

// installed empties node n's victim buffer for b and records the stamp
// of the request that installed n's new copy.
func (e *SLL) installed(n coherent.NodeID, b coherent.BlockID, seq uint64) {
	nd := &e.nodes[n]
	delete(nd.gone, b)
	if nd.seqs == nil {
		nd.seqs = make(map[coherent.BlockID]uint64)
	}
	nd.seqs[b] = seq
}

// Name implements coherent.Engine.
func (e *SLL) Name() string { return "sll" }

func (e *SLL) entry(b coherent.BlockID) *sllEntry {
	en, _ := e.m.Dir(b).(*sllEntry)
	if en == nil {
		en = &sllEntry{head: coherent.NoNode, owner: coherent.NoNode}
		e.m.SetDir(b, en)
	}
	return en
}

// StartMiss implements coherent.Engine.
func (e *SLL) StartMiss(m *coherent.Machine, txn *coherent.Txn) {
	typ := coherent.MsgReadReq
	if txn.Write {
		typ = coherent.MsgWriteReq
	}
	m.Send(coherent.Msg{
		Type: typ, Src: txn.Node, Dst: m.Home(txn.Block), Block: txn.Block,
		Requester: txn.Node, Data: txn.Value, HasData: txn.Write,
		ToDir: true, Gated: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

// HomeRequest implements coherent.Engine.
func (e *SLL) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	b := msg.Block
	home := m.Home(b)
	en.seq++
	switch msg.Type {
	case coherent.MsgReadReq:
		if en.head == coherent.NoNode || en.head == msg.Requester {
			// Empty list — or the recorded head re-reading after a
			// silent replacement (forwarding to itself would deadlock):
			// home supplies the data directly.
			en.state = coherent.DirShared
			en.head = msg.Requester
			m.ReplyFromMemory(coherent.Msg{
				Type: coherent.MsgDataReply, Src: home, Dst: msg.Requester, Block: b,
				Requester: msg.Requester, HasData: true,
				Aux: coherent.NoNode, AckTo: coherent.NoNode, Seq: en.seq,
			}, coherent.ServeAny)
			return
		}
		oldHead := en.head
		en.head = msg.Requester
		if en.state == coherent.DirDirty {
			// The dirty head will demote itself and write back when it
			// supplies the data.
			en.state = coherent.DirShared
			en.owner = coherent.NoNode
		}
		m.MarkServed(msg.Requester, b, coherent.ServeAny)
		m.Send(coherent.Msg{
			Type: coherent.MsgFwd, Src: home, Dst: oldHead, Block: b,
			Requester: msg.Requester, Data: m.Store.Value(b),
			Aux: coherent.NoNode, AckTo: coherent.NoNode, Seq: en.seq,
		})
		m.ReleaseHome(b)
	case coherent.MsgWriteReq:
		m.SerializeWrite(msg)
		if en.head == coherent.NoNode {
			e.grantWrite(m, en, msg)
			return
		}
		en.pend = &sllPending{req: *msg}
		m.CtrAt(home).Invalidations++
		m.Send(coherent.Msg{
			Type: coherent.MsgInv, Src: home, Dst: en.head, Block: b,
			Requester: msg.Requester, AckTo: home, AckDir: true, Aux: coherent.NoNode,
		})
	default:
		panic("list/sll: unexpected gated request " + msg.Type.String())
	}
}

func (e *SLL) grantWrite(m *coherent.Machine, en *sllEntry, msg *coherent.Msg) {
	b := msg.Block
	en.pend = nil
	en.state = coherent.DirDirty
	en.owner = msg.Requester
	en.head = msg.Requester
	// The gate is held from the write's serialization until the grant,
	// so en.seq is still the write's own stamp here. RelHome: the write
	// commit and home-gate release ride a companion event at the
	// delivery instant on the home's own lane, in place of the
	// receiver's handler doing them inline.
	m.ReplyFromMemory(coherent.Msg{
		Type: coherent.MsgWriteReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
		Requester: msg.Requester, HasData: true,
		Aux: coherent.NoNode, AckTo: coherent.NoNode, RelHome: true, Seq: en.seq,
	}, coherent.ServeNone)
}

// HomeMsg implements coherent.Engine.
func (e *SLL) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	switch msg.Type {
	case coherent.MsgInvAck:
		m.CtrAt(msg.Dst).InvAcks++
		if en.pend == nil {
			panic("list/sll: unexpected InvAck")
		}
		e.grantWrite(m, en, &en.pend.req)
	case coherent.MsgWbData:
		m.CtrAt(msg.Dst).Writebacks++
		m.Store.OwnerValue(msg.Block, msg.Data)
		if en.owner == msg.Src {
			en.owner = coherent.NoNode
			if msg.Write {
				en.state = coherent.DirShared // demoted head keeps a shared copy
			} else if en.head == msg.Src {
				// The sole dirty copy was evicted; the list is empty.
				en.head = coherent.NoNode
				en.state = coherent.DirUncached
			} else {
				en.state = coherent.DirShared
			}
		}
	default:
		panic("list/sll: unexpected home message " + msg.Type.String())
	}
}

// CacheMsg implements coherent.Engine.
func (e *SLL) CacheMsg(m *coherent.Machine, msg *coherent.Msg) {
	n := msg.Dst
	node := m.Nodes[n]
	switch msg.Type {
	case coherent.MsgDataReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || txn.Write {
			panic("list/sll: DataReply without matching read txn")
		}
		e.installed(n, msg.Block, msg.Seq)
		m.CompleteTxn(txn, cache.Valid, msg.Data, &sllMeta{next: coherent.NoNode})
	case coherent.MsgWriteReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || !txn.Write {
			panic("list/sll: WriteReply without matching write txn")
		}
		e.installed(n, msg.Block, msg.Seq)
		m.CompleteTxn(txn, cache.Exclusive, txn.Value, &sllMeta{next: coherent.NoNode})
		// The home gate is released by the RelHome companion event on
		// the home's own lane (see grantWrite).
	case coherent.MsgFwd:
		// Supply the block to the new head; the supplier stays in the
		// list as the new head's successor.
		ln := node.Cache.Lookup(msg.Block)
		if ln != nil && ln.State != cache.Invalid {
			data := ln.Val
			if ln.State == cache.Exclusive {
				// Demote and write back (RM on a dirty head).
				ln.State = cache.Valid
				m.Send(coherent.Msg{
					Type: coherent.MsgWbData, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
					HasData: true, Data: data, Write: true, ToDir: true,
					Aux: coherent.NoNode, AckTo: coherent.NoNode,
				})
			}
			m.Send(coherent.Msg{
				Type: coherent.MsgChainData, Src: n, Dst: msg.Requester, Block: msg.Block,
				Requester: msg.Requester, HasData: true, Data: data,
				Aux: coherent.NoNode, AckTo: coherent.NoNode, Seq: msg.Seq,
			})
			return
		}
		// The copy the home aimed this forward at is gone. The stamp
		// says which incarnation that was: a forward aimed at the record
		// our last install made carries exactly our stamp + 1 (each head
		// record forwards only the immediately following request), so a
		// larger stamp means the home has already recorded our in-flight
		// re-read and aimed the forward at it.
		if txn := m.Txn(n, msg.Block); txn != nil && !txn.Write && txn.Served &&
			msg.Seq > e.nodes[n].seqs[msg.Block]+1 {
			// Aimed at our in-flight copy; supply the requester after it
			// installs (the home snapshot in msg.Data may be stale if a
			// dirty owner upstream keeps writing), so the requester's
			// successor pointer names an installed copy.
			m.DeferToTxn(n, msg)
			return
		}
		if v, ok := e.nodes[n].gone[msg.Block]; ok {
			// Aimed at the incarnation we silently replaced; its suffix
			// came down with it. Serve from the victim value: it is the
			// chain value at the forward's serialization point (the home
			// snapshot in msg.Data may predate our own in-flight
			// writeback or a demoting owner's), and deferring behind our
			// own re-read would let two in-flight attaches wait on each
			// other forever.
			m.Send(coherent.Msg{
				Type: coherent.MsgChainData, Src: n, Dst: msg.Requester, Block: msg.Block,
				Requester: msg.Requester, HasData: true, Data: v,
				Aux: coherent.NoNode, AckTo: coherent.NoNode, Seq: msg.Seq,
			})
			return
		}
		// No victim value (the old copy fell to an invalidation wave,
		// not a replacement): the home snapshot is coherent for this
		// forward's serialization point.
		m.Send(coherent.Msg{
			Type: coherent.MsgChainData, Src: n, Dst: msg.Requester, Block: msg.Block,
			Requester: msg.Requester, HasData: true, Data: msg.Data,
			Aux: coherent.NoNode, AckTo: coherent.NoNode, Seq: msg.Seq,
		})
	case coherent.MsgChainData:
		txn := m.Txn(n, msg.Block)
		if txn == nil || txn.Write {
			panic("list/sll: ChainData without matching read txn")
		}
		e.installed(n, msg.Block, msg.Seq)
		m.CompleteTxn(txn, cache.Valid, msg.Data, &sllMeta{next: msg.Src})
	case coherent.MsgInv:
		if txn := m.Txn(n, msg.Block); txn != nil && !txn.Write && txn.Served {
			// Our copy is in flight; invalidate it after it installs so
			// the walk continues through our successor pointer.
			m.DeferToTxn(n, msg)
			return
		}
		ln := node.Cache.Lookup(msg.Block)
		if ln == nil || ln.State == cache.Invalid {
			// Chain broken by a silent replacement; everything below
			// was torn down with it, so we are the effective tail.
			e.ack(m, n, msg)
			return
		}
		next := coherent.NoNode
		if meta, ok := ln.Meta.(*sllMeta); ok {
			next = meta.next
		}
		m.Invalidate(n, msg.Block)
		if next == coherent.NoNode {
			e.ack(m, n, msg) // tail acknowledges
			return
		}
		m.CtrAt(n).Invalidations++
		m.Send(coherent.Msg{
			Type: coherent.MsgInv, Src: n, Dst: next, Block: msg.Block,
			Requester: msg.Requester, AckTo: msg.AckTo, AckDir: msg.AckDir, Aux: coherent.NoNode,
		})
	case coherent.MsgReplaceInv:
		// Stamped copies are deferred teardown continuations replayed
		// from our own transaction after the install they waited for
		// (see teardownAt); unstamped ones are the on-the-wire traffic
		// copies of a walk already applied in simulator state.
		if msg.Seq != 0 {
			e.teardownAt(m, n, msg.Block, msg.Seq)
		}
	default:
		panic("list/sll: unexpected cache message " + msg.Type.String())
	}
}

func (e *SLL) ack(m *coherent.Machine, n coherent.NodeID, msg *coherent.Msg) {
	m.Send(coherent.Msg{
		Type: coherent.MsgInvAck, Src: n, Dst: msg.AckTo, Block: msg.Block,
		Requester: msg.Requester, ToDir: msg.AckDir, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

// OnEvict implements coherent.Engine: the suffix below the replaced
// node is invalidated with Replace_INV (the forward-pointer-only
// analogue of the tree scheme's subtree teardown); an exclusive line
// writes back.
//
// Simulation liberty (DESIGN.md §6): the teardown takes effect within
// the eviction instant, with the Replace_INV messages sent for traffic
// accounting only. The victim buffer (sllNode.gone) models the mechanism a
// real implementation needs to keep a racing forward sequentially
// consistent: the evicted value is retained until a fresh copy
// installs, so a forward that still names this node as head can be
// served coherently. The teardown walk hops down the chain one
// deferred op at a time (see teardown), so each successor's line is
// read and invalidated on that successor's own lane.
func (e *SLL) OnEvict(m *coherent.Machine, n coherent.NodeID, ln *cache.Line) {
	nd := &e.nodes[n]
	if nd.gone == nil {
		nd.gone = make(map[coherent.BlockID]uint64)
	}
	nd.gone[ln.Block] = ln.Val
	if ln.State == cache.Exclusive {
		m.Send(coherent.Msg{
			Type: coherent.MsgWbData, Src: n, Dst: m.Home(ln.Block), Block: ln.Block,
			HasData: true, Data: ln.Val, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
		return
	}
	next := coherent.NoNode
	if meta, ok := ln.Meta.(*sllMeta); ok {
		next = meta.next
	}
	if next != coherent.NoNode {
		e.teardown(m, n, next, ln.Block, nd.seqs[ln.Block])
	}
}

// teardown runs one hop of the suffix teardown from src's lane: account
// the Replace_INV to next, then defer the examination and invalidation
// of next's line onto next's own lane, where the walk continues through
// next's forward pointer. The deferred ops replay in global (at, seq)
// order, so the whole suffix still comes down within the eviction
// instant, one lane-local step per link. evictSeq is the evicting
// node's attach stamp: the walk owns exactly the copies that attached
// below it (stamp < evictSeq). The wire message carries no stamp —
// stamped Replace_INVs are reserved for the deferred continuations a
// mid-attach successor replays against itself (see teardownAt).
func (e *SLL) teardown(m *coherent.Machine, src, next coherent.NodeID, b coherent.BlockID, evictSeq uint64) {
	m.CtrAt(src).ReplaceInvs++
	m.Send(coherent.Msg{
		Type: coherent.MsgReplaceInv, Src: src, Dst: next, Block: b,
		Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
	m.DeferAt(src, next, func() { e.teardownAt(m, next, b, evictSeq) })
}

// teardownAt is the deferred half of one teardown hop, running on n's
// own lane. A live copy that attached below the evictor (stamp <
// evictSeq) is invalidated and the walk hops onward; a copy with a
// newer stamp belongs to a later attach and ends the walk. A dead line
// with no transaction ends the walk too (everything below came down
// with it), but a dead line whose re-read is already in flight is a
// mid-attach copy: if it was aimed below the evictor it must still come
// down, so the kill — a stamped Replace_INV — is deferred behind the
// install and replayed from the transaction, where the stamp comparison
// settles whether the freshly installed copy is part of the suffix.
func (e *SLL) teardownAt(m *coherent.Machine, n coherent.NodeID, b coherent.BlockID, evictSeq uint64) {
	ln := m.Nodes[n].Cache.Lookup(b)
	if ln == nil || ln.State == cache.Invalid {
		if txn := m.Txn(n, b); txn != nil && !txn.Write && txn.Served {
			m.DeferToTxn(n, &coherent.Msg{
				Type: coherent.MsgReplaceInv, Src: n, Dst: n, Block: b,
				Aux: coherent.NoNode, AckTo: coherent.NoNode, Seq: evictSeq,
			})
		}
		return
	}
	if e.nodes[n].seqs[b] >= evictSeq {
		return // a later attach reused this position; not ours to tear down
	}
	nn := coherent.NoNode
	if meta, ok := ln.Meta.(*sllMeta); ok {
		nn = meta.next
	}
	m.Invalidate(n, b)
	if nn != coherent.NoNode {
		e.teardown(m, n, nn, b, evictSeq)
	}
}

// DirectoryBits implements coherent.Engine: the paper's (C+B)·n·log n —
// one pointer per memory block at the home plus one per cache line.
func (e *SLL) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 {
	n := int64(cfg.Procs)
	logn := cfg.PointerBits()
	return (int64(blocksPerNode) + int64(cfg.CacheLines())) * n * logn
}
