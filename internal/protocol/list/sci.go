package list

import (
	"slices"

	"dircc/internal/cache"
	"dircc/internal/coherent"
)

// sciEntry is the SCI home state: the head pointer plus the attach
// table for in-flight read attaches. Both live at the home node, so
// every mutation of them happens on the home's lane.
type sciEntry struct {
	state coherent.DirState
	head  coherent.NodeID
	owner coherent.NodeID
	pend  *sciPending
	// attach tracks every in-flight read attach on this block: per
	// requester, the old head it was told to fetch from. An eviction
	// marks attaches aimed at the dying copy stale (NoNode) so the Fwd
	// can be answered immediately instead of deferred — deferring an
	// attach aimed at a dead incarnation onto that node's NEW
	// transaction invents a dependency that can close a cycle of
	// deferred attaches and deadlock.
	attach nodeTable[coherent.NodeID]
	// links is the authoritative copy of each live line's chain
	// pointers. The per-line sciMeta is a lane-local cache: eviction
	// splices capture and patch neighbors here, inline on the home's
	// lane in global op order, so two same-instant evictions of
	// adjacent copies always see each other's patches — the per-line
	// copies are patched best-effort and self-heal through tombstones.
	links nodeTable[sciLink]
}

// sciLink is the home-resident authoritative image of one line's chain
// pointers (see sciEntry.links).
type sciLink struct {
	prev, next coherent.NodeID
}

// nodeTable is a home table holding one value per node, kept in node
// order: plain data that staleMarkAttaches and the canonical dump walk
// in order without sorting, and that holds one record per node with a
// value rather than one per node of the machine.
type nodeTable[V any] []nodeRecord[V]

type nodeRecord[V any] struct {
	node coherent.NodeID
	val  V
}

// find returns node n's value, or nil. The pointer is valid until the
// next set or del.
func (t nodeTable[V]) find(n coherent.NodeID) *V {
	for i := range t {
		if t[i].node == n {
			return &t[i].val
		}
	}
	return nil
}

// set makes v node n's value.
func (t *nodeTable[V]) set(n coherent.NodeID, v V) {
	i := 0
	for i < len(*t) && (*t)[i].node < n {
		i++
	}
	if i < len(*t) && (*t)[i].node == n {
		(*t)[i].val = v
		return
	}
	*t = slices.Insert(*t, i, nodeRecord[V]{node: n, val: v})
}

// del removes node n's value, if it has one.
func (t *nodeTable[V]) del(n coherent.NodeID) {
	for i := range *t {
		if (*t)[i].node == n {
			*t = slices.Delete(*t, i, i+1)
			return
		}
	}
}

// sciPending is a write in progress at the home (the gate is held). It
// keeps the request by value: the delivered record is recycled when the
// handler returns.
type sciPending struct {
	req coherent.Msg
}

// sciMeta is the per-line doubly linked list state. prev == NoNode
// means the line is the head (its predecessor is the home memory).
type sciMeta struct {
	prev, next coherent.NodeID
}

// purgeState is the writer-side cursor of the serial purge.
type purgeState struct {
	cur coherent.NodeID
}

// SCI is the IEEE 1596 Scalable Coherent Interface doubly-linked-list
// engine.
//
// Read miss: request (1), home returns the old head (1), the requester
// attaches to the old head (1) which supplies the data (1) — 4
// messages, 2 when the list is empty. Write miss: the writer becomes
// head and serially purges its successors, 2 messages per copy — 2P+4
// total including the final grant handshake.
//
// Replacement unlinks the node from the list with messages to both
// neighbors. Two documented simulation liberties (DESIGN.md §6): the
// splice takes effect within the eviction instant in simulator state
// (the unlink messages account for traffic but real SCI resolves
// splice races with retries we do not model), and a purge reaching a
// just-replaced node consults a tombstone to continue down the chain.
//
// The engine is shard-safe: home state (directory entry + attach
// table) is only touched on the home's lane, tombstones are
// partitioned per node, and the three chain operations that
// historically reached across nodes — the stale-attach check on a
// forward, the eviction splice, and the live-successor reroute — run
// as deferred ops (Machine.DeferAt) that hop to the lane owning each
// piece of state and back, replayed in global order within the
// instant.
type SCI struct {
	m *coherent.Machine
	// tombs[n] holds node n's replacement tombstones: the old successor
	// of each evicted incarnation, consumed by purges and successor
	// walks that still name the dead copy. Only node n's lane writes
	// tombs[n]; cross-lane readers hop (see successorHop).
	tombs []map[coherent.BlockID]coherent.NodeID
	// vs is the verification hooks' scratch.
	vs verifyScratch
}

// NewSCI returns an SCI engine.
func NewSCI() *SCI {
	return &SCI{}
}

// Name implements coherent.Engine.
func (e *SCI) Name() string { return "sci" }

// Prepare implements coherent.Preparer: bind the machine and allocate
// the per-node tombstone slots so each lane mutates only its own. A
// node's map is allocated on its first tombstone.
func (e *SCI) Prepare(m *coherent.Machine) {
	e.m = m
	e.tombs = make([]map[coherent.BlockID]coherent.NodeID, len(m.Nodes))
}

// setTomb records node n's tombstone for b: the successor a walk that
// still names n's dead copy continues to.
func (e *SCI) setTomb(n coherent.NodeID, b coherent.BlockID, next coherent.NodeID) {
	if e.tombs[n] == nil {
		e.tombs[n] = make(map[coherent.BlockID]coherent.NodeID)
	}
	e.tombs[n][b] = next
}

func (e *SCI) entry(b coherent.BlockID) *sciEntry {
	en, _ := e.m.Dir(b).(*sciEntry)
	if en == nil {
		en = &sciEntry{head: coherent.NoNode, owner: coherent.NoNode}
		e.m.SetDir(b, en)
	}
	return en
}

func sciMetaOf(ln *cache.Line) *sciMeta {
	if meta, ok := ln.Meta.(*sciMeta); ok {
		return meta
	}
	return nil
}

// StartMiss implements coherent.Engine.
func (e *SCI) StartMiss(m *coherent.Machine, txn *coherent.Txn) {
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
func (e *SCI) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	b := msg.Block
	home := m.Home(b)
	switch msg.Type {
	case coherent.MsgReadReq:
		if en.head == coherent.NoNode || en.head == msg.Requester {
			// Empty list, or the recorded head re-reading after its
			// copy was replaced (attaching to itself would deadlock):
			// home supplies the data directly.
			en.state = coherent.DirShared
			en.head = msg.Requester
			m.ReplyFromMemory(coherent.Msg{
				Type: coherent.MsgDataReply, Src: home, Dst: msg.Requester, Block: b,
				Requester: msg.Requester, HasData: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
			}, coherent.ServeAny)
			return
		}
		oldHead := en.head
		en.head = msg.Requester
		if en.state == coherent.DirDirty {
			en.state = coherent.DirShared
			en.owner = coherent.NoNode
		}
		en.attach.set(msg.Requester, oldHead)
		m.MarkServed(msg.Requester, b, coherent.ServeAny)
		m.Send(coherent.Msg{
			Type: coherent.MsgHeadReply, Src: home, Dst: msg.Requester, Block: b,
			Requester: msg.Requester, Aux: oldHead, AckTo: coherent.NoNode,
		})
		m.ReleaseHome(b)
	case coherent.MsgWriteReq:
		m.SerializeWrite(msg)
		if en.head == coherent.NoNode {
			e.grantWrite(m, en, msg)
			return
		}
		en.pend = &sciPending{req: *msg}
		m.Send(coherent.Msg{
			Type: coherent.MsgHeadReply, Src: home, Dst: msg.Requester, Block: b,
			Requester: msg.Requester, Aux: en.head, Write: true, AckTo: coherent.NoNode,
		})
	default:
		panic("list/sci: unexpected gated request " + msg.Type.String())
	}
}

func (e *SCI) grantWrite(m *coherent.Machine, en *sciEntry, msg *coherent.Msg) {
	b := msg.Block
	en.pend = nil
	en.state = coherent.DirDirty
	en.owner = msg.Requester
	en.head = msg.Requester
	// RelHome: the write commit and home-gate release ride a companion
	// event at the delivery instant on the home's own lane, in place of
	// the receiver's handler doing them inline.
	m.ReplyFromMemory(coherent.Msg{
		Type: coherent.MsgWriteReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
		Requester: msg.Requester, HasData: true, RelHome: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	}, coherent.ServeNone)
}

// HomeMsg implements coherent.Engine.
func (e *SCI) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	switch msg.Type {
	case coherent.MsgDone:
		// The writer finished its serial purge.
		if en.pend == nil {
			panic("list/sci: Done without a pending write")
		}
		e.grantWrite(m, en, &en.pend.req)
	case coherent.MsgWbData:
		// The one writeback SCI sends is a demoting head's answer to a
		// forwarded read (serveFwd). The home cleared the owner when it
		// forwarded that read, and per-pair FIFO delivery brings the
		// writeback before anything the head sends later, so only the
		// value is left to record.
		m.CtrAt(msg.Dst).Writebacks++
		m.Store.OwnerValue(msg.Block, msg.Data)
	case coherent.MsgUnlink:
		// A replaced head already spliced itself out in simulator
		// state; the message accounts for the traffic.
	default:
		panic("list/sci: unexpected home message " + msg.Type.String())
	}
}

// CacheMsg implements coherent.Engine.
func (e *SCI) CacheMsg(m *coherent.Machine, msg *coherent.Msg) {
	n := msg.Dst
	switch msg.Type {
	case coherent.MsgDataReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || txn.Write {
			panic("list/sci: DataReply without matching read txn")
		}
		delete(e.tombs[n], msg.Block)
		e.clearAttach(m, n, msg.Block)
		e.mirrorLink(m, n, msg.Block, coherent.NoNode, coherent.NoNode)
		m.CompleteTxn(txn, cache.Valid, msg.Data, &sciMeta{prev: coherent.NoNode, next: coherent.NoNode})
	case coherent.MsgWriteReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || !txn.Write {
			panic("list/sci: WriteReply without matching write txn")
		}
		delete(e.tombs[n], msg.Block)
		e.clearAttach(m, n, msg.Block)
		e.mirrorLink(m, n, msg.Block, coherent.NoNode, coherent.NoNode)
		m.CompleteTxn(txn, cache.Exclusive, txn.Value, &sciMeta{prev: coherent.NoNode, next: coherent.NoNode})
		// The home gate is released by the RelHome companion event on
		// the home's own lane (see grantWrite).
	case coherent.MsgHeadReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil {
			panic("list/sci: HeadReply without matching txn")
		}
		if msg.Write {
			e.startPurge(m, txn, msg.Aux)
			return
		}
		// Attach to the old head.
		m.Send(fwdMsg(msg.Block, msg.Aux, n))
	case coherent.MsgFwd:
		// The stale-attach check and, on the dead-line path, the data
		// both live at the home, so the forward hops to the home's lane
		// and back before it is served (see fwdViaHome).
		b, req := msg.Block, msg.Requester
		m.DeferAt(n, m.Home(b), func() { e.fwdViaHome(m, b, n, req, false) })
	case coherent.MsgChainData:
		txn := m.Txn(n, msg.Block)
		if txn == nil || txn.Write {
			panic("list/sci: ChainData without matching read txn")
		}
		delete(e.tombs[n], msg.Block)
		e.clearAttach(m, n, msg.Block)
		// Resolve the supplier to its nearest live chain position on
		// the lanes that own the links, then install (see successorHop).
		data, src := msg.Data, msg.Src
		m.DeferAt(n, src, func() { e.successorHop(m, txn, data, src, 0) })
	case coherent.MsgPurge:
		if txn := m.Txn(n, msg.Block); txn != nil && !txn.Write && txn.Served {
			m.DeferToTxn(n, msg)
			return
		}
		next := coherent.NoNode
		ln := m.Nodes[n].Cache.Lookup(msg.Block)
		if ln != nil && ln.State != cache.Invalid {
			if meta := sciMetaOf(ln); meta != nil {
				next = meta.next
			}
			m.Invalidate(n, msg.Block)
			pb := msg.Block
			m.DeferAt(n, m.Home(pb), func() {
				e.entry(pb).links.del(n)
			})
		} else if t, ok := e.tombs[n][msg.Block]; ok {
			next = t
			delete(e.tombs[n], msg.Block)
		}
		m.CtrAt(n).InvAcks++
		m.Send(coherent.Msg{
			Type: coherent.MsgPurgeAck, Src: n, Dst: msg.Requester, Block: msg.Block,
			Requester: msg.Requester, Aux: next, AckTo: coherent.NoNode,
		})
	case coherent.MsgPurgeAck:
		txn := m.Txn(n, msg.Block)
		if txn == nil || !txn.Write {
			panic("list/sci: PurgeAck without matching write txn")
		}
		e.continuePurge(m, txn, msg.Aux)
	case coherent.MsgUnlink:
		// Splice already applied in simulator state; traffic only.
	default:
		panic("list/sci: unexpected cache message " + msg.Type.String())
	}
}

// clearAttach drops the requester's attach record on the home's lane
// once its transaction completes.
func (e *SCI) clearAttach(m *coherent.Machine, n coherent.NodeID, b coherent.BlockID) {
	m.DeferAt(n, m.Home(b), func() {
		e.entry(b).attach.del(n)
	})
}

// mirrorLink records node n's authoritative chain pointers at the home
// (see sciEntry.links).
func (e *SCI) mirrorLink(m *coherent.Machine, n coherent.NodeID, b coherent.BlockID, prev, next coherent.NodeID) {
	m.DeferAt(n, m.Home(b), func() {
		e.entry(b).links.set(n, sciLink{prev: prev, next: next})
	})
}

// fwdMsg is the forward by which requester req attaches to head, the
// old head of block b's list. serveFwd rebuilds it to defer it, so the
// two copies cannot differ.
func fwdMsg(b coherent.BlockID, head, req coherent.NodeID) coherent.Msg {
	return coherent.Msg{
		Type: coherent.MsgFwd, Src: req, Dst: head, Block: b,
		Requester: req, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	}
}

// fwdViaHome runs on the home's lane: consult the attach table and
// either answer requester req's stale attach from home memory or bounce
// the forward back to the lane of n, the old head, to be served there.
// rechecked is true on the second pass serveFwd requests before
// deferring (see there).
func (e *SCI) fwdViaHome(m *coherent.Machine, b coherent.BlockID, n, req coherent.NodeID, rechecked bool) {
	home := m.Home(b)
	en := e.entry(b)
	if t := en.attach.find(req); t != nil && *t == coherent.NoNode {
		// The attacher is chasing a copy we already evicted (its
		// attach was stale-marked by OnEvict). Answer at once — never
		// defer: deferring onto the old head's re-read transaction
		// would invent a dependency on the NEW incarnation and can
		// close a cycle of deferred attaches that deadlocks. The data
		// comes from current home memory, read here on the home's
		// lane: the stale mark and an evicted dirty copy's writeback
		// ride the same deferred op, so a marked attach always sees
		// the written-back value — the value at the attacher's
		// serialization point (no write can complete while the
		// attacher is pending; its purge defers behind the attacher).
		// Real SCI resolves this by retrying at memory; we skip the
		// retry round trip, a documented liberty.
		data := m.Store.Value(b)
		m.DeferAt(home, n, func() {
			m.Send(coherent.Msg{
				Type: coherent.MsgChainData, Src: n, Dst: req, Block: b,
				Requester: req, HasData: true, Data: data,
				Aux: coherent.NoNode, AckTo: coherent.NoNode,
			})
		})
		return
	}
	m.DeferAt(home, n, func() { e.serveFwd(m, b, n, req, rechecked) })
}

// serveFwd runs on the lane of n, the old head: defer requester req's
// forward behind a served read, supply from the live line, or fetch the
// current home value for a silently replaced copy.
func (e *SCI) serveFwd(m *coherent.Machine, b coherent.BlockID, n, req coherent.NodeID, rechecked bool) {
	ln := m.Nodes[n].Cache.Lookup(b)
	live := ln != nil && ln.State != cache.Invalid
	if txn := m.Txn(n, b); !live && txn != nil && !txn.Write && txn.Served {
		if !rechecked {
			// A same-instant eviction of the old incarnation may have
			// scheduled its stale-mark after our first attach check ran:
			// deferring now would hook the attacher onto the NEW
			// incarnation's transaction and can close a deadlock cycle.
			// Any such eviction has already replayed its inline part by
			// the time we observe the dead line, so its mark op is
			// scheduled — one more pass through the home's lane sees it.
			m.DeferAt(n, m.Home(b), func() { e.fwdViaHome(m, b, n, req, true) })
			return
		}
		fwd := fwdMsg(b, n, req)
		m.DeferToTxn(n, &fwd)
		return
	}
	if !live {
		// Replaced without a stale-marked attach: answer with the
		// current home copy. The fetch hops to the home's lane; it is
		// scheduled after the eviction that killed this line, so it
		// observes that eviction's writeback.
		home := m.Home(b)
		m.DeferAt(n, home, func() {
			data := m.Store.Value(b)
			m.DeferAt(home, n, func() {
				m.Send(coherent.Msg{
					Type: coherent.MsgChainData, Src: n, Dst: req, Block: b,
					Requester: req, HasData: true, Data: data,
					Aux: coherent.NoNode, AckTo: coherent.NoNode,
				})
			})
		})
		return
	}
	// New head attaching: record it as our predecessor and supply the
	// data.
	data := ln.Val
	if meta := sciMetaOf(ln); meta != nil {
		meta.prev = req
	}
	m.DeferAt(n, m.Home(b), func() {
		if lk := e.entry(b).links.find(n); lk != nil {
			lk.prev = req
		}
	})
	if ln.State == cache.Exclusive {
		ln.State = cache.Valid
		m.Send(coherent.Msg{
			Type: coherent.MsgWbData, Src: n, Dst: m.Home(b), Block: b,
			HasData: true, Data: data, Write: true, ToDir: true,
			Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	}
	m.Send(coherent.Msg{
		Type: coherent.MsgChainData, Src: n, Dst: req, Block: b,
		Requester: req, HasData: true, Data: data,
		Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

// successorHop resolves the supplier named by a ChainData to the
// nearest live chain position by following replacement tombstones, one
// deferred hop per candidate so each line and tombstone is read on the
// lane that owns it. An attacher recording a dead incarnation as its
// successor would otherwise materialize an edge the eviction splice
// could not patch — the attacher's line did not exist yet. Data flows
// strictly in attach order, so the supplier's tombstone is still
// present whenever the edge needs rerouting. The walk ends with a hop
// back to the requester's lane to install the line with the supplied
// data (cur's residency invariant: successorHop always runs on cur's
// lane).
func (e *SCI) successorHop(m *coherent.Machine, txn *coherent.Txn, data uint64, cur coherent.NodeID, hops int) {
	n := txn.Node
	b := txn.Block
	install := func(next coherent.NodeID) {
		m.DeferAt(cur, n, func() {
			e.mirrorLink(m, n, b, coherent.NoNode, next)
			m.CompleteTxn(txn, cache.Valid, data, &sciMeta{prev: coherent.NoNode, next: next})
		})
	}
	if hops > len(m.Nodes) {
		install(cur)
		return
	}
	if ln := m.Nodes[cur].Cache.Lookup(b); ln != nil && ln.State != cache.Invalid {
		install(cur)
		return
	}
	t, ok := e.tombs[cur][b]
	if !ok {
		install(cur)
		return
	}
	if t == coherent.NoNode {
		install(t)
		return
	}
	m.DeferAt(cur, t, func() { e.successorHop(m, txn, data, t, hops+1) })
}

// startPurge begins the writer's serial purge at the old head.
func (e *SCI) startPurge(m *coherent.Machine, txn *coherent.Txn, oldHead coherent.NodeID) {
	txn.Scratch = &purgeState{}
	if oldHead == txn.Node {
		// Upgrade: we were the head; start from our own successor.
		next := coherent.NoNode
		if meta := sciMetaOf(txn.Line); meta != nil {
			next = meta.next
		}
		e.continuePurge(m, txn, next)
		return
	}
	e.continuePurge(m, txn, oldHead)
}

// continuePurge advances the serial purge cursor.
func (e *SCI) continuePurge(m *coherent.Machine, txn *coherent.Txn, cur coherent.NodeID) {
	if cur == txn.Node {
		// Our own (stale or upgrading) self in the chain: skip past our
		// successor pointer, falling back to the tombstone left by a
		// replacement.
		next := coherent.NoNode
		if ln := m.Nodes[txn.Node].Cache.Lookup(txn.Block); ln != nil && ln.State != cache.Invalid {
			if meta := sciMetaOf(ln); meta != nil {
				next = meta.next
			}
		} else if t, ok := e.tombs[txn.Node][txn.Block]; ok {
			next = t
			delete(e.tombs[txn.Node], txn.Block)
		}
		cur = next
	}
	if cur == coherent.NoNode {
		m.Send(coherent.Msg{
			Type: coherent.MsgDone, Src: txn.Node, Dst: m.Home(txn.Block), Block: txn.Block,
			Requester: txn.Node, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
		return
	}
	m.CtrAt(txn.Node).Invalidations++
	m.Send(coherent.Msg{
		Type: coherent.MsgPurge, Src: txn.Node, Dst: cur, Block: txn.Block,
		Requester: txn.Node, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

// OnEvict implements coherent.Engine: splice out of the doubly linked
// list, notifying both neighbors (the home when we are the head). The
// lane-local part — the tombstone and the dirty writeback message —
// happens inline; everything that touches home state (the attach
// stale-marking, the head patch, the dirty-value application) rides a
// deferred op to the home's lane, which in turn defers the neighbor
// pointer patches to the lanes that own those lines.
func (e *SCI) OnEvict(m *coherent.Machine, n coherent.NodeID, ln *cache.Line) {
	b := ln.Block
	home := m.Home(b)
	if ln.State == cache.Exclusive {
		// Dirty eviction: the writeback and the home bookkeeping take
		// effect within the eviction instant — the same liberty as the
		// list splice below — so home never serves the stale
		// pre-writeback value once the eviction's deferred op has
		// replayed; the Unlink accounts for the traffic. A dead-end
		// tombstone makes chain edges recorded against this incarnation
		// resolve to "end of list".
		m.CtrAt(n).Writebacks++
		e.setTomb(n, b, coherent.NoNode)
		val := ln.Val
		m.Send(coherent.Msg{
			Type: coherent.MsgUnlink, Src: n, Dst: home, Block: b,
			HasData: true, Data: val, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
		m.DeferAt(n, home, func() { e.evictDirtyAtHome(m, n, b, val) })
		return
	}
	meta := sciMetaOf(ln)
	provPrev, provNext := coherent.NoNode, coherent.NoNode
	spliced := meta != nil
	if spliced {
		provPrev, provNext = meta.prev, meta.next
		// Tombstone so an in-flight purge naming us can continue the
		// walk. The local meta is provisional — a neighbor evicting in
		// the same instant patches us through a deferred op we may not
		// have seen yet — but a stale tombstone still self-heals: it
		// names the dead neighbor, whose own tombstone carries the walk
		// onward. spliceAtHome re-reads the authoritative links at the
		// home and corrects the tombstone if it survives that long.
		e.setTomb(n, b, provNext)
	}
	m.DeferAt(n, home, func() { e.spliceAtHome(m, n, b, provPrev, provNext, spliced) })
}

// evictDirtyAtHome runs on the home's lane: stale-mark attaches aimed
// at the dead copy, apply the writeback, and clear the ownership.
func (e *SCI) evictDirtyAtHome(m *coherent.Machine, n coherent.NodeID, b coherent.BlockID, val uint64) {
	en := e.entry(b)
	e.staleMarkAttaches(en, n)
	en.links.del(n)
	m.Store.OwnerValue(b, val)
	if en.owner == n {
		en.owner = coherent.NoNode
	}
	if en.head == n {
		en.head = coherent.NoNode
		en.state = coherent.DirUncached
	} else if en.state == coherent.DirDirty {
		en.state = coherent.DirShared
	}
}

// spliceAtHome runs on the home's lane: stale-mark attaches aimed at
// the dead copy, capture the authoritative chain pointers from the
// home-resident links (the provisional lane-local capture loses races
// against same-instant neighbor evictions), patch the head pointer and
// the neighbors' authoritative links inline in global op order, defer
// the lane-local pointer-cache patches to the owning lanes, and send
// the unlink traffic from the evicting node's lane.
func (e *SCI) spliceAtHome(m *coherent.Machine, n coherent.NodeID, b coherent.BlockID, provPrev, provNext coherent.NodeID, spliced bool) {
	en := e.entry(b)
	pendingPrev := e.staleMarkAttaches(en, n)
	lk := en.links.find(n)
	auth := lk != nil
	var cur sciLink
	if auth {
		cur = *lk
	}
	en.links.del(n)
	if !spliced {
		return
	}
	prev, next := provPrev, provNext
	if auth {
		prev, next = cur.prev, cur.next
	}
	if pendingPrev != coherent.NoNode {
		// A pending attacher outranks whatever the links said: it is
		// the newest predecessor, and its own successor edge will be
		// rerouted past us through the tombstone when it completes.
		prev = pendingPrev
	}
	home := m.Home(b)
	cn := next
	m.DeferAt(home, n, func() {
		// Correct the provisional tombstone to the authoritative
		// successor — but never resurrect one a purge already consumed.
		if _, live := e.tombs[n][b]; live {
			e.tombs[n][b] = cn
		}
	})
	if prev == coherent.NoNode {
		if en.head == n {
			en.head = next
			if next == coherent.NoNode && en.state == coherent.DirShared {
				en.state = coherent.DirUncached
			}
		}
		m.DeferAt(home, n, func() {
			m.Send(coherent.Msg{
				Type: coherent.MsgUnlink, Src: n, Dst: home, Block: b,
				ToDir: true, Aux: next, AckTo: coherent.NoNode,
			})
		})
	} else {
		p := prev
		if pl := en.links.find(p); pl != nil && pl.next == n {
			pl.next = next
		}
		m.DeferAt(home, p, func() {
			if pl := m.Nodes[p].Cache.Lookup(b); pl != nil {
				if pm := sciMetaOf(pl); pm != nil && pm.next == n {
					pm.next = next
				}
			}
		})
		m.DeferAt(home, n, func() {
			m.Send(coherent.Msg{
				Type: coherent.MsgUnlink, Src: n, Dst: p, Block: b,
				Aux: next, AckTo: coherent.NoNode,
			})
		})
	}
	if next != coherent.NoNode {
		nn := next
		fp := prev
		if nl := en.links.find(nn); nl != nil && nl.prev == n {
			nl.prev = fp
		}
		m.DeferAt(home, nn, func() {
			if nl := m.Nodes[nn].Cache.Lookup(b); nl != nil {
				if nm := sciMetaOf(nl); nm != nil && nm.prev == n {
					nm.prev = fp
				}
			}
		})
		m.DeferAt(home, n, func() {
			m.Send(coherent.Msg{
				Type: coherent.MsgUnlink, Src: n, Dst: nn, Block: b,
				Aux: fp, AckTo: coherent.NoNode,
			})
		})
	}
}

// staleMarkAttaches marks every in-flight attach aimed at node n's
// dying copy stale (NoNode) so its Fwd is answered instead of deferred
// (see fwdViaHome), returning the attacher — the true in-flight
// predecessor, superseding meta.prev, which cannot have been updated
// yet (the Fwd carrying that update is the very message in flight).
// Runs on the home's lane; attachers are visited in node order, so the
// last one marked wins.
func (e *SCI) staleMarkAttaches(en *sciEntry, n coherent.NodeID) coherent.NodeID {
	pendingPrev := coherent.NoNode
	for i := range en.attach {
		if a := &en.attach[i]; a.val == n {
			a.val = coherent.NoNode
			pendingPrev = a.node
		}
	}
	return pendingPrev
}

// DirectoryBits implements coherent.Engine: head pointer per memory
// block plus forward and backward pointers per cache line.
func (e *SCI) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 {
	n := int64(cfg.Procs)
	logn := cfg.PointerBits()
	return (int64(blocksPerNode) + 2*int64(cfg.CacheLines())) * n * logn
}
