// Package limited implements the limited directory protocols Dir_iNB
// and Dir_iB: each block's home holds at most i node pointers.
//
// Dir_iNB (non-broadcast) handles pointer overflow by evicting one of
// the recorded copies: the home invalidates a round-robin victim
// pointer, waits for its acknowledgment, and installs the requester in
// the freed slot. This performs poorly when more than i processors
// actively share a block — the "unnecessary invalidations and read
// misses" cost of the paper's Table 1.
//
// Dir_iB (broadcast) instead sets an overflow bit; a subsequent write
// miss must broadcast invalidations to every node in the machine and
// collect n-1 acknowledgments.
package limited

import (
	"fmt"

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

type entry struct {
	state     dirState
	ptrs      []coherent.NodeID // at most i recorded sharers
	owner     coherent.NodeID
	broadcast bool // Dir_iB overflow bit
	rr        int  // Dir_iNB round-robin eviction cursor
	pend      *pending
}

type stage uint8

const (
	stageNone  stage = iota
	stageWb          // waiting for a dirty owner's data
	stageEvict       // Dir_iNB overflow: waiting for the victim's ack
	stageInv         // write miss: waiting for invalidation acks
)

type pending struct {
	req      *coherent.Msg
	stage    stage
	wbFrom   coherent.NodeID
	acksLeft int
}

// Engine implements Dir_iNB or Dir_iB for one machine.
type Engine struct {
	ptrs      int
	broadcast bool
	m         *coherent.Machine
}

// NewNB returns a Dir_iNB engine with the given pointer count.
func NewNB(i int) *Engine {
	if i < 1 {
		panic(fmt.Sprintf("limited: need at least 1 pointer, got %d", i))
	}
	return &Engine{ptrs: i}
}

// NewB returns a Dir_iB engine with the given pointer count.
func NewB(i int) *Engine {
	e := NewNB(i)
	e.broadcast = true
	return e
}

// Name implements coherent.Engine ("Dir4NB", "Dir2B", ...).
func (e *Engine) Name() string {
	if e.broadcast {
		return fmt.Sprintf("Dir%dB", e.ptrs)
	}
	return fmt.Sprintf("Dir%dNB", e.ptrs)
}

// Pointers returns i.
func (e *Engine) Pointers() int { return e.ptrs }

// Prepare implements coherent.Preparer: directory records live in the
// machine's per-home-node dir storage, so each record is only ever
// touched by its home's lane under the sharded kernel.
func (e *Engine) Prepare(m *coherent.Machine) { e.m = m }

func (e *Engine) entry(b coherent.BlockID) *entry {
	en, _ := e.m.Dir(b).(*entry)
	if en == nil {
		en = &entry{owner: coherent.NoNode}
		e.m.SetDir(b, en)
	}
	return en
}

func (en *entry) recorded(n coherent.NodeID) bool {
	for _, p := range en.ptrs {
		if p == n {
			return true
		}
	}
	return false
}

func (en *entry) drop(n coherent.NodeID) {
	for i, p := range en.ptrs {
		if p == n {
			en.ptrs = append(en.ptrs[:i], en.ptrs[i+1:]...)
			return
		}
	}
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
			en.pend = &pending{req: msg, stage: stageWb, wbFrom: en.owner}
			m.Send(&coherent.Msg{
				Type: coherent.MsgWbReq, Src: m.Home(msg.Block), Dst: en.owner,
				Block: msg.Block, Requester: msg.Requester, Aux: coherent.NoNode,
			})
			return
		}
		e.admitRead(m, en, msg)
	case coherent.MsgWriteReq:
		m.SerializeWrite(msg)
		if en.state == dirty && en.owner != msg.Requester {
			en.pend = &pending{req: msg, stage: stageWb, wbFrom: en.owner}
			m.Send(&coherent.Msg{
				Type: coherent.MsgWbReq, Src: m.Home(msg.Block), Dst: en.owner,
				Block: msg.Block, Requester: msg.Requester, Write: true, Aux: coherent.NoNode,
			})
			return
		}
		e.startInvalidation(m, en, msg)
	default:
		panic("limited: unexpected gated request " + msg.Type.String())
	}
}

// admitRead records the requester, handling pointer overflow per the
// scheme variant, then serves the data.
func (e *Engine) admitRead(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	home := m.Home(b)
	switch {
	case en.recorded(msg.Requester):
		// Re-read after a silent replacement; pointer already present.
	case len(en.ptrs) < e.ptrs:
		en.ptrs = append(en.ptrs, msg.Requester)
	case e.broadcast:
		// Dir_iB: set the overflow bit; the copy is unrecorded.
		en.broadcast = true
		m.CtrAt(home).PointerEvicts++ // counts overflow events for both variants
	default:
		// Dir_iNB: invalidate a round-robin victim pointer first.
		victim := en.ptrs[en.rr%len(en.ptrs)]
		en.rr++
		m.CtrAt(home).PointerEvicts++
		m.CtrAt(home).Invalidations++
		en.pend = &pending{req: msg, stage: stageEvict, acksLeft: 1, wbFrom: coherent.NoNode}
		m.Send(&coherent.Msg{
			Type: coherent.MsgInv, Src: home, Dst: victim, Block: b,
			Requester: msg.Requester, Aux: coherent.NoNode,
		})
		return
	}
	e.serveRead(m, en, msg)
}

func (e *Engine) serveRead(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	if en.state == uncached {
		en.state = shared
	}
	m.ReadMem(b, func() {
		m.Send(&coherent.Msg{
			Type: coherent.MsgDataReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
			Requester: msg.Requester, HasData: true, Data: m.Store.Value(b), Aux: coherent.NoNode,
		})
		m.ReleaseHome(b)
	})
}

// startInvalidation launches the write-miss invalidation round.
func (e *Engine) startInvalidation(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	home := m.Home(b)
	pend := &pending{req: msg, stage: stageInv, wbFrom: coherent.NoNode}
	en.pend = pend
	if en.broadcast {
		m.CtrAt(home).Broadcasts++
		for n := 0; n < m.Cfg.Procs; n++ {
			if coherent.NodeID(n) == msg.Requester {
				continue
			}
			pend.acksLeft++
			m.CtrAt(home).Invalidations++
			m.Send(&coherent.Msg{
				Type: coherent.MsgInv, Src: home, Dst: coherent.NodeID(n), Block: b,
				Requester: msg.Requester, Aux: coherent.NoNode,
			})
		}
	} else {
		for _, n := range en.ptrs {
			if n == msg.Requester {
				continue
			}
			pend.acksLeft++
			m.CtrAt(home).Invalidations++
			m.Send(&coherent.Msg{
				Type: coherent.MsgInv, Src: home, Dst: n, Block: b,
				Requester: msg.Requester, Aux: coherent.NoNode,
			})
		}
	}
	if pend.acksLeft == 0 {
		e.grantWrite(m, en, msg)
	}
}

func (e *Engine) grantWrite(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	en.pend = nil
	en.state = dirty
	en.owner = msg.Requester
	en.ptrs = []coherent.NodeID{msg.Requester}
	en.broadcast = false
	m.ReadMem(b, func() {
		m.Send(&coherent.Msg{
			Type: coherent.MsgWriteReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
			Requester: msg.Requester, HasData: true, Data: m.Store.Value(b), Aux: coherent.NoNode,
			RelHome: true,
		})
	})
}

// HomeMsg implements coherent.Engine.
func (e *Engine) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	switch msg.Type {
	case coherent.MsgInvAck:
		m.CtrAt(msg.Dst).InvAcks++
		p := en.pend
		if p == nil || p.acksLeft <= 0 {
			panic("limited: unexpected InvAck")
		}
		p.acksLeft--
		if p.acksLeft > 0 {
			return
		}
		switch p.stage {
		case stageEvict:
			// Victim gone; record the requester and serve.
			en.drop(msg.Src)
			en.ptrs = append(en.ptrs, p.req.Requester)
			en.pend = nil
			e.serveRead(m, en, p.req)
		case stageInv:
			e.grantWrite(m, en, p.req)
		default:
			panic("limited: InvAck in wrong stage")
		}
	case coherent.MsgWbData:
		m.CtrAt(msg.Dst).Writebacks++
		m.Store.WritebackValue(msg.Block, msg.Data)
		en.drop(msg.Src)
		if en.owner == msg.Src {
			en.owner = coherent.NoNode
			en.state = shared
			if len(en.ptrs) == 0 && !en.broadcast {
				en.state = uncached
			}
		}
		if p := en.pend; p != nil && p.stage == stageWb && p.wbFrom == msg.Src {
			req := p.req
			en.pend = nil
			if msg.Write {
				// RM_WW recall: the demoted owner keeps a shared copy.
				en.ptrs = append(en.ptrs, msg.Src)
				en.state = shared
			}
			if req.Type == coherent.MsgReadReq {
				e.admitRead(m, en, req)
			} else {
				e.startInvalidation(m, en, req)
			}
		}
	default:
		panic("limited: unexpected home message " + msg.Type.String())
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
			panic("limited: DataReply without matching read txn")
		}
		m.CompleteTxn(txn, cache.Valid, msg.Data, nil)
	case coherent.MsgWriteReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || !txn.Write {
			panic("limited: WriteReply without matching write txn")
		}
		// The home gate's release rides on the reply itself (RelHome):
		// the machine runs it as a companion event at the home.
		m.CompleteTxn(txn, cache.Exclusive, txn.Value, nil)
	case coherent.MsgInv:
		m.Invalidate(n, msg.Block)
		m.Send(&coherent.Msg{
			Type: coherent.MsgInvAck, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			Requester: msg.Requester, ToDir: true, Aux: coherent.NoNode,
		})
	case coherent.MsgWbReq:
		ln := node.Cache.Lookup(msg.Block)
		if ln == nil || ln.State != cache.Exclusive {
			return // voluntary writeback already ahead of us
		}
		data := ln.Val
		if msg.Write {
			m.Invalidate(n, msg.Block)
		} else {
			ln.State = cache.Valid
			m.TraceState(n, msg.Block, cache.Exclusive, cache.Valid)
		}
		m.Send(&coherent.Msg{
			Type: coherent.MsgWbData, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			HasData: true, Data: data, Write: !msg.Write, ToDir: true, Aux: coherent.NoNode,
		})
	default:
		panic("limited: unexpected cache message " + msg.Type.String())
	}
}

// OnEvict implements coherent.Engine: shared copies drop silently,
// exclusive copies write back.
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
	s := fmt.Sprintf("%s owner=%d ptrs=%v broadcast=%v", en.state, en.owner, en.ptrs, en.broadcast)
	if p := en.pend; p != nil {
		s += fmt.Sprintf(" pending{%s from %d, stage=%d, wbFrom=%d, acksLeft=%d}",
			p.req.Type, p.req.Requester, p.stage, p.wbFrom, p.acksLeft)
	}
	return s
}

// DirectoryBits implements coherent.Engine using the paper's
// B·i·n·log n formula plus one state bit per block.
func (e *Engine) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 {
	n := int64(cfg.Procs)
	return int64(blocksPerNode) * n * int64(e.ptrs) * int64(ceilLog2(cfg.Procs)) // pointers
}

func ceilLog2(n int) int {
	l := 0
	for (1 << l) < n {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}
