// Package fullmap implements the full-map directory protocol
// (Dir_nNB): every block's home keeps one presence bit per node plus a
// dirty bit. It is the paper's baseline and the reference point for the
// normalized execution times in Figures 8-11.
//
// Read miss: 2 messages (request + data reply), possibly preceded by a
// writeback round trip if a third node holds the block dirty. Write
// miss: the home sends one Inv per sharer and collects one ack each
// before granting ownership — 2P+2 messages whose injection serializes
// at the home network interface, which is the "sequential invalidation"
// cost the tree protocol attacks.
package fullmap

import (
	"fmt"
	"math/bits"

	"dircc/internal/cache"
	"dircc/internal/coherent"
)

// entry is the per-block directory record.
type entry struct {
	state   coherent.DirState
	sharers presence
	owner   coherent.NodeID
	pend    *pending
}

// presence is the paper's full-map vector: one bit per node, node n at
// bit n%64 of word n/64, in ⌈P/64⌉ words allocated with the entry.
type presence []uint64

func (p presence) add(n coherent.NodeID)    { p[n/64] |= 1 << (n % 64) }
func (p presence) remove(n coherent.NodeID) { p[n/64] &^= 1 << (n % 64) }

// count returns the number of nodes present.
func (p presence) count() int {
	c := 0
	for _, w := range p {
		c += bits.OnesCount64(w)
	}
	return c
}

// appendNodes appends the present nodes to dst in node order.
func (p presence) appendNodes(dst []coherent.NodeID) []coherent.NodeID {
	for i, w := range p {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, coherent.NodeID(i*64+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// pending is an in-progress home transaction (the gate is held). It
// keeps the request by value: the delivered record is recycled when the
// handler returns.
type pending struct {
	req      coherent.Msg
	wantWb   coherent.NodeID // owner a writeback is expected from, or NoNode
	acksLeft int
	next     *pending // free-list link
}

// Engine is the full-map protocol engine. One instance serves one
// Machine (bound at Prepare).
type Engine struct {
	m *coherent.Machine
	// spare is each home's free list of pending records: a transaction
	// that must wait for a writeback or acknowledgments takes one, and
	// the home returns it when the transaction leaves the directory.
	// Only the home's lane touches its list.
	spare []*pending
	// roots is the model-checker hooks' scratch: the slice
	// CoverageRoots returns, and a sharer list being rendered.
	roots []coherent.NodeID
}

// New returns a fresh full-map engine.
func New() *Engine { return &Engine{} }

// Name implements coherent.Engine.
func (e *Engine) Name() string { return "fm" }

// Prepare implements coherent.Preparer: directory records live in the
// machine's per-home-node dir storage, and pending records on per-home
// free lists, so each record is only ever touched by its home's lane
// under the sharded kernel.
func (e *Engine) Prepare(m *coherent.Machine) {
	e.m = m
	e.spare = make([]*pending, m.Cfg.Procs)
}

// newPending takes a pending record for request msg from home's free
// list.
//
//dirccvet:hotpath
//go:noinline
func (e *Engine) newPending(home coherent.NodeID, msg *coherent.Msg, wantWb coherent.NodeID) *pending {
	p := e.spare[home]
	if p == nil {
		//dirccvet:allow allocguard a home allocates a pending record only while more of its transactions wait than ever before
		p = new(pending)
	} else {
		e.spare[home] = p.next
	}
	*p = pending{req: *msg, wantWb: wantWb}
	return p
}

// freePending returns p, which no directory entry names any more, to
// home's free list.
//
//dirccvet:hotpath
func (e *Engine) freePending(home coherent.NodeID, p *pending) {
	p.next = e.spare[home]
	e.spare[home] = p
}

func (e *Engine) entry(b coherent.BlockID) *entry {
	en, _ := e.m.Dir(b).(*entry)
	if en == nil {
		en = &entry{state: coherent.DirUncached, sharers: make(presence, (e.m.Cfg.Procs+63)/64), owner: coherent.NoNode}
		e.m.SetDir(b, en)
	}
	return en
}

// StartMiss implements coherent.Engine.
//
//dirccvet:hotpath
func (e *Engine) StartMiss(m *coherent.Machine, txn *coherent.Txn) {
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
//
//dirccvet:hotpath
func (e *Engine) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	switch msg.Type {
	case coherent.MsgReadReq:
		if en.state == coherent.DirDirty && en.owner != msg.Requester {
			// RM_WW: recall the dirty copy, demoting the owner.
			en.pend = e.newPending(msg.Dst, msg, en.owner)
			m.Send(coherent.Msg{
				Type: coherent.MsgWbReq, Src: m.Home(msg.Block), Dst: en.owner,
				Block: msg.Block, Requester: msg.Requester, Aux: coherent.NoNode, AckTo: coherent.NoNode,
			})
			return
		}
		e.serveRead(m, en, msg)
	case coherent.MsgWriteReq:
		m.SerializeWrite(msg)
		if en.state == coherent.DirDirty && en.owner != msg.Requester {
			// WM_WW: recall and invalidate the dirty copy.
			en.pend = e.newPending(msg.Dst, msg, en.owner)
			m.Send(coherent.Msg{
				Type: coherent.MsgWbReq, Src: m.Home(msg.Block), Dst: en.owner,
				Block: msg.Block, Requester: msg.Requester, Write: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
			})
			return
		}
		e.startInvalidation(m, msg.Dst, en, msg)
	default:
		panic("fullmap: unexpected gated request " + msg.Type.String())
	}
}

// serveRead sends the data reply and records the requester as a sharer.
//
//dirccvet:hotpath
func (e *Engine) serveRead(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	home := m.Home(b)
	en.sharers.add(msg.Requester)
	if en.state == coherent.DirUncached {
		en.state = coherent.DirShared
	}
	if m.Tracing() {
		//dirccvet:allow allocguard trace-only label formatting
		m.TraceDir(b, fmt.Sprintf("%s +sharer %d (%d sharers)", en.state, msg.Requester, en.sharers.count()))
	}
	if en.state == coherent.DirDirty && en.owner == msg.Requester {
		// The owner's copy was silently... it cannot re-read while
		// owning: an eviction writeback always precedes this request
		// (same-pair FIFO), clearing the dirty state. Reaching here
		// means the writeback logic broke.
		panic("fullmap: dirty owner re-requested its own block")
	}
	m.ReplyFromMemory(coherent.Msg{
		Type: coherent.MsgDataReply, Src: home, Dst: msg.Requester, Block: b,
		Requester: msg.Requester, HasData: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	}, coherent.ServeNone)
}

// startInvalidation launches WM_LIP: one Inv per sharer except the
// requester, acks collected at home, the block's home node.
//
//dirccvet:hotpath
func (e *Engine) startInvalidation(m *coherent.Machine, home coherent.NodeID, en *entry, msg *coherent.Msg) {
	b := msg.Block
	pend := e.newPending(home, msg, coherent.NoNode)
	en.pend = pend
	// Walk the presence bits in node order, which fixes the injection
	// order and with it the cycle counts.
	for i, w := range en.sharers {
		for ; w != 0; w &= w - 1 {
			n := coherent.NodeID(i*64 + bits.TrailingZeros64(w))
			if n == msg.Requester {
				continue
			}
			pend.acksLeft++
			m.CtrAt(home).Invalidations++
			m.Send(coherent.Msg{
				Type: coherent.MsgInv, Src: home, Dst: n, Block: b,
				Requester: msg.Requester, Aux: coherent.NoNode, AckTo: coherent.NoNode,
			})
		}
	}
	if pend.acksLeft == 0 {
		e.grantWrite(m, home, en, msg)
	}
}

// grantWrite finishes a write transaction at home. msg may be the
// request a pending record keeps: grantWrite reads it before it returns
// the record to the free list.
//
//dirccvet:hotpath
func (e *Engine) grantWrite(m *coherent.Machine, home coherent.NodeID, en *entry, msg *coherent.Msg) {
	b, req := msg.Block, msg.Requester
	e.freePending(home, en.pend)
	en.pend = nil
	en.state = coherent.DirDirty
	en.owner = req
	clear(en.sharers)
	en.sharers.add(req)
	if m.Tracing() {
		//dirccvet:allow allocguard trace-only label formatting
		m.TraceDir(b, fmt.Sprintf("dirty owner %d", en.owner))
	}
	// The gate stays held until the writer confirms installation
	// (WM_LIP ends when the write performs): the reply's delivery
	// releases it (RelHome). This keeps write serialization windows
	// disjoint.
	m.ReplyFromMemory(coherent.Msg{
		Type: coherent.MsgWriteReply, Src: home, Dst: req, Block: b,
		Requester: req, HasData: true, Aux: coherent.NoNode, AckTo: coherent.NoNode, RelHome: true,
	}, coherent.ServeNone)
}

// HomeMsg implements coherent.Engine (acks and writebacks).
//
//dirccvet:hotpath
func (e *Engine) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	switch msg.Type {
	case coherent.MsgInvAck:
		m.CtrAt(msg.Dst).InvAcks++
		if en.pend == nil || en.pend.acksLeft <= 0 {
			panic("fullmap: unexpected InvAck")
		}
		en.pend.acksLeft--
		if en.pend.acksLeft == 0 {
			e.grantWrite(m, msg.Dst, en, &en.pend.req)
		}
	case coherent.MsgWbData:
		m.CtrAt(msg.Dst).Writebacks++
		m.Store.OwnerValue(msg.Block, msg.Data)
		en.sharers.remove(msg.Src)
		if en.owner == msg.Src {
			en.owner = coherent.NoNode
			en.state = coherent.DirShared
			if en.sharers.count() == 0 {
				en.state = coherent.DirUncached
			}
		}
		if p := en.pend; p != nil && p.wantWb == msg.Src {
			// The recall (or a racing eviction) satisfied RM_WW/WM_WW.
			en.pend = nil
			if p.req.Type == coherent.MsgReadReq {
				if msg.Write {
					// The owner kept a demoted shared copy.
					en.sharers.add(msg.Src)
					en.state = coherent.DirShared
				}
				e.serveRead(m, en, &p.req)
			} else {
				e.startInvalidation(m, msg.Dst, en, &p.req)
			}
			e.freePending(msg.Dst, p)
		}
	default:
		panic("fullmap: unexpected home message " + msg.Type.String())
	}
}

// CacheMsg implements coherent.Engine.
//
//dirccvet:hotpath
func (e *Engine) CacheMsg(m *coherent.Machine, msg *coherent.Msg) {
	n := msg.Dst
	node := m.Nodes[n]
	switch msg.Type {
	case coherent.MsgDataReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || txn.Write {
			panic("fullmap: DataReply without matching read txn")
		}
		m.CompleteTxn(txn, cache.Valid, msg.Data, nil)
	case coherent.MsgWriteReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || !txn.Write {
			panic("fullmap: WriteReply without matching write txn")
		}
		// The home gate's release rides on the reply itself (RelHome):
		// the machine runs it as a companion event at the home.
		m.CompleteTxn(txn, cache.Exclusive, txn.Value, nil)
	case coherent.MsgInv:
		// Invalidate if present; always acknowledge (presence bits may
		// be stale after silent replacement).
		m.Invalidate(n, msg.Block)
		m.Send(coherent.Msg{
			Type: coherent.MsgInvAck, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			Requester: msg.Requester, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	case coherent.MsgWbReq:
		ln := node.Cache.Lookup(msg.Block)
		if ln == nil || ln.State != cache.Exclusive {
			// Already evicted; the voluntary writeback is ahead of us
			// in the home's delivery order. Nothing to do.
			return
		}
		data := ln.Val
		if msg.Write {
			// WM_WW recall: give up the line entirely.
			m.Invalidate(n, msg.Block)
		} else {
			// RM_WW recall: demote to a shared copy.
			ln.State = cache.Valid
			m.TraceState(n, msg.Block, cache.Exclusive, cache.Valid)
		}
		m.Send(coherent.Msg{
			Type: coherent.MsgWbData, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			HasData: true, Data: data, Write: !msg.Write, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	default:
		panic("fullmap: unexpected cache message " + msg.Type.String())
	}
}

// OnEvict implements coherent.Engine: shared lines drop silently,
// exclusive lines write back.
//
//dirccvet:hotpath
func (e *Engine) OnEvict(m *coherent.Machine, n coherent.NodeID, ln *cache.Line) {
	if ln.State != cache.Exclusive {
		return
	}
	m.Send(coherent.Msg{
		Type: coherent.MsgWbData, Src: n, Dst: m.Home(ln.Block), Block: ln.Block,
		HasData: true, Data: ln.Val, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

// DirectoryBits implements coherent.Engine: B·n bits per node's blocks
// times n nodes (presence bits) plus a dirty bit per block.
func (e *Engine) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 {
	n := int64(cfg.Procs)
	b := int64(blocksPerNode)
	return b*n*n + b*n // presence bits + dirty bits
}
