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
	"sort"

	"dircc/internal/cache"
	"dircc/internal/coherent"
)

type dirState uint8

const (
	uncached dirState = iota
	shared
	dirty
)

func (s dirState) String() string {
	switch s {
	case uncached:
		return "uncached"
	case shared:
		return "shared"
	case dirty:
		return "dirty"
	}
	return fmt.Sprintf("dirState(%d)", uint8(s))
}

// entry is the per-block directory record.
type entry struct {
	state   dirState
	sharers map[coherent.NodeID]bool
	owner   coherent.NodeID
	pend    *pending
}

// pending is an in-progress home transaction (the gate is held).
type pending struct {
	req      *coherent.Msg
	wantWb   coherent.NodeID // owner a writeback is expected from, or NoNode
	acksLeft int
}

// Engine is the full-map protocol engine. One instance serves one
// Machine (bound at Prepare).
type Engine struct {
	m *coherent.Machine
}

// New returns a fresh full-map engine.
func New() *Engine { return &Engine{} }

// Name implements coherent.Engine.
func (e *Engine) Name() string { return "fm" }

// Prepare implements coherent.Preparer: directory records live in the
// machine's per-home-node dir storage, so each record is only ever
// touched by its home's lane under the sharded kernel.
func (e *Engine) Prepare(m *coherent.Machine) { e.m = m }

func (e *Engine) entry(b coherent.BlockID) *entry {
	en, _ := e.m.Dir(b).(*entry)
	if en == nil {
		en = &entry{state: uncached, sharers: make(map[coherent.NodeID]bool), owner: coherent.NoNode}
		e.m.SetDir(b, en)
	}
	return en
}

// StartMiss implements coherent.Engine.
func (e *Engine) StartMiss(m *coherent.Machine, txn *coherent.Txn) {
	typ := coherent.MsgReadReq
	if txn.Write {
		typ = coherent.MsgWriteReq
	}
	m.Send(&coherent.Msg{
		Type: typ, Src: txn.Node, Dst: m.Home(txn.Block), Block: txn.Block,
		Requester: txn.Node, Data: txn.Value, HasData: txn.Write,
		ToDir: true, Gated: true, Aux: coherent.NoNode,
	})
}

// HomeRequest implements coherent.Engine.
func (e *Engine) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	switch msg.Type {
	case coherent.MsgReadReq:
		if en.state == dirty && en.owner != msg.Requester {
			// RM_WW: recall the dirty copy, demoting the owner.
			en.pend = &pending{req: msg, wantWb: en.owner}
			m.Send(&coherent.Msg{
				Type: coherent.MsgWbReq, Src: m.Home(msg.Block), Dst: en.owner,
				Block: msg.Block, Requester: msg.Requester, Aux: coherent.NoNode,
			})
			return
		}
		e.serveRead(m, en, msg)
	case coherent.MsgWriteReq:
		m.SerializeWrite(msg)
		if en.state == dirty && en.owner != msg.Requester {
			// WM_WW: recall and invalidate the dirty copy.
			en.pend = &pending{req: msg, wantWb: en.owner}
			m.Send(&coherent.Msg{
				Type: coherent.MsgWbReq, Src: m.Home(msg.Block), Dst: en.owner,
				Block: msg.Block, Requester: msg.Requester, Write: true, Aux: coherent.NoNode,
			})
			return
		}
		e.startInvalidation(m, en, msg)
	default:
		panic("fullmap: unexpected gated request " + msg.Type.String())
	}
}

// serveRead sends the data reply and records the requester as a sharer.
func (e *Engine) serveRead(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	home := m.Home(b)
	en.sharers[msg.Requester] = true
	if en.state == uncached {
		en.state = shared
	}
	if m.Tracing() {
		m.TraceDir(b, fmt.Sprintf("%s +sharer %d (%d sharers)", en.state, msg.Requester, len(en.sharers)))
	}
	if en.state == dirty && en.owner == msg.Requester {
		// The owner's copy was silently... it cannot re-read while
		// owning: an eviction writeback always precedes this request
		// (same-pair FIFO), clearing the dirty state. Reaching here
		// means the writeback logic broke.
		panic("fullmap: dirty owner re-requested its own block")
	}
	m.ReadMem(b, func() {
		m.Send(&coherent.Msg{
			Type: coherent.MsgDataReply, Src: home, Dst: msg.Requester, Block: b,
			Requester: msg.Requester, HasData: true, Data: m.Store.Value(b), Aux: coherent.NoNode,
		})
		m.ReleaseHome(b)
	})
}

// startInvalidation launches WM_LIP: one Inv per sharer except the
// requester, acks collected at the home.
func (e *Engine) startInvalidation(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	home := m.Home(b)
	pend := &pending{req: msg, wantWb: coherent.NoNode}
	en.pend = pend
	// Iterate sharers in node order: map iteration order would make
	// injection order — and therefore cycle counts — nondeterministic.
	targets := make([]coherent.NodeID, 0, len(en.sharers))
	for n := range en.sharers {
		if n != msg.Requester {
			targets = append(targets, n)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	for _, n := range targets {
		pend.acksLeft++
		m.CtrAt(home).Invalidations++
		m.Send(&coherent.Msg{
			Type: coherent.MsgInv, Src: home, Dst: n, Block: b,
			Requester: msg.Requester, Aux: coherent.NoNode,
		})
	}
	if pend.acksLeft == 0 {
		e.grantWrite(m, en, msg)
	}
}

// grantWrite finishes a write transaction at the home.
func (e *Engine) grantWrite(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	en.pend = nil
	en.state = dirty
	en.owner = msg.Requester
	en.sharers = map[coherent.NodeID]bool{msg.Requester: true}
	if m.Tracing() {
		m.TraceDir(b, fmt.Sprintf("dirty owner %d", en.owner))
	}
	// The gate stays held until the writer confirms installation
	// (WM_LIP ends when the write performs); the writer-side handler
	// releases it. This keeps write serialization windows disjoint.
	m.ReadMem(b, func() {
		m.Send(&coherent.Msg{
			Type: coherent.MsgWriteReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
			Requester: msg.Requester, HasData: true, Data: m.Store.Value(b), Aux: coherent.NoNode,
			RelHome: true,
		})
	})
}

// HomeMsg implements coherent.Engine (acks and writebacks).
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
			e.grantWrite(m, en, en.pend.req)
		}
	case coherent.MsgWbData:
		m.CtrAt(msg.Dst).Writebacks++
		m.Store.WritebackValue(msg.Block, msg.Data)
		delete(en.sharers, msg.Src)
		if en.owner == msg.Src {
			en.owner = coherent.NoNode
			en.state = shared
			if len(en.sharers) == 0 {
				en.state = uncached
			}
		}
		if p := en.pend; p != nil && p.wantWb == msg.Src {
			// The recall (or a racing eviction) satisfied RM_WW/WM_WW.
			p.wantWb = coherent.NoNode
			req := p.req
			en.pend = nil
			if req.Type == coherent.MsgReadReq {
				if msg.Write {
					// The owner kept a demoted shared copy.
					en.sharers[msg.Src] = true
					en.state = shared
				}
				e.serveRead(m, en, req)
			} else {
				e.startInvalidation(m, en, req)
			}
		}
	default:
		panic("fullmap: unexpected home message " + msg.Type.String())
	}
}

// CacheMsg implements coherent.Engine.
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
		m.Send(&coherent.Msg{
			Type: coherent.MsgInvAck, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			Requester: msg.Requester, ToDir: true, Aux: coherent.NoNode,
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
		m.Send(&coherent.Msg{
			Type: coherent.MsgWbData, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			HasData: true, Data: data, Write: !msg.Write, ToDir: true, Aux: coherent.NoNode,
		})
	default:
		panic("fullmap: unexpected cache message " + msg.Type.String())
	}
}

// OnEvict implements coherent.Engine: shared lines drop silently,
// exclusive lines write back.
func (e *Engine) OnEvict(m *coherent.Machine, n coherent.NodeID, ln *cache.Line) {
	if ln.State != cache.Exclusive {
		return
	}
	m.Send(&coherent.Msg{
		Type: coherent.MsgWbData, Src: n, Dst: m.Home(ln.Block), Block: ln.Block,
		HasData: true, Data: ln.Val, ToDir: true, Aux: coherent.NoNode,
	})
}

// DescribeBlock implements coherent.BlockDumper for stall diagnostics.
func (e *Engine) DescribeBlock(b coherent.BlockID) string {
	en, _ := e.m.Dir(b).(*entry)
	if en == nil {
		return "uncached (no entry)"
	}
	sharers := make([]coherent.NodeID, 0, len(en.sharers))
	for n := range en.sharers {
		sharers = append(sharers, n)
	}
	sort.Slice(sharers, func(i, j int) bool { return sharers[i] < sharers[j] })
	s := fmt.Sprintf("%s owner=%d sharers=%v", en.state, en.owner, sharers)
	if p := en.pend; p != nil {
		s += fmt.Sprintf(" pending{%s from %d, wantWb=%d, acksLeft=%d}",
			p.req.Type, p.req.Requester, p.wantWb, p.acksLeft)
	}
	return s
}

// DirectoryBits implements coherent.Engine: B·n bits per node's blocks
// times n nodes (presence bits) plus a dirty bit per block.
func (e *Engine) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 {
	n := int64(cfg.Procs)
	b := int64(blocksPerNode)
	return b*n*n + b*n // presence bits + dirty bits
}
