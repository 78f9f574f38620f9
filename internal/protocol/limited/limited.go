// Package limited implements the limited directory protocols Dir_iNB,
// Dir_iB and LimitLESS_i as one engine: each block's home holds at most
// i node pointers, and the three schemes differ only in what a read
// does once those pointers are full — the family the paper's Tables 1
// and 2 compare.
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
//
// LimitLESS_i, the software-extended directory of Chaiken, Kubiatowicz
// and Agarwal (ASPLOS-IV 1991), interrupts the processor at the home,
// which spills the excess pointer to a software-managed table in
// normal memory. Every sharer stays recorded, as in the full map, but
// each trap to software costs TrapCycles at the home, charged when a
// pointer spills and again when a write miss must consult the software
// table to invalidate the spilled sharers. That software-handler delay
// is the scheme's disadvantage the paper cites ("2P+2 plus (P-4)
// software handler delay" for LimitLESS_4).
package limited

import (
	"fmt"
	"slices"

	"dircc/internal/cache"
	"dircc/internal/coherent"
	"dircc/internal/sim"
)

type entry struct {
	state     coherent.DirState
	ptrs      []coherent.NodeID // at most i recorded sharers, in insertion order
	owner     coherent.NodeID
	broadcast bool              // Dir_iB overflow bit
	rr        int               // Dir_iNB round-robin eviction cursor
	spill     []coherent.NodeID // LimitLESS software-extended pointers, sorted
	pend      *pending
}

type stage uint8

const (
	stageNone  stage = iota
	stageWb          // waiting for a dirty owner's data
	stageEvict       // Dir_iNB overflow: waiting for the victim's ack
	stageInv         // write miss: waiting for invalidation acks
)

// pending is an in-progress home transaction (the gate is held). It
// keeps the request by value: the delivered record is recycled when the
// handler returns.
type pending struct {
	req      coherent.Msg
	stage    stage
	wbFrom   coherent.NodeID
	acksLeft int
}

// overflow is what a read does once a block's i pointers are full.
type overflow uint8

const (
	overflowEvict     overflow = iota // Dir_iNB
	overflowBroadcast                 // Dir_iB
	overflowSpill                     // LimitLESS_i
)

// Engine implements Dir_iNB, Dir_iB or LimitLESS_i for one machine.
type Engine struct {
	ptrs     int
	overflow overflow
	trap     sim.Time // LimitLESS software-handler cost per trap
	m        *coherent.Machine
	// roots is the slice CoverageRoots returns, reused by its next
	// call.
	roots []coherent.NodeID
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
	e.overflow = overflowBroadcast
	return e
}

// DefaultTrapCycles is the software-handler cost charged per directory
// trap (pointer spill, or reading the spilled set on a write miss).
// LimitLESS on Alewife reported full-map-normalized overheads consistent
// with a few tens of cycles per trap on a 33 MHz Sparcle; 50 cycles is
// a representative value at this simulator's scale.
const DefaultTrapCycles sim.Time = 50

// NewLimitLESS returns a LimitLESS_i engine with the default trap cost.
func NewLimitLESS(i int) *Engine { return NewLimitLESSWithTrap(i, DefaultTrapCycles) }

// NewLimitLESSWithTrap returns a LimitLESS_i engine with an explicit
// software trap cost in cycles.
func NewLimitLESSWithTrap(i int, trap sim.Time) *Engine {
	e := NewNB(i)
	if trap < 1 {
		panic(fmt.Sprintf("limited: trap cost must be >= 1 cycle, got %d", trap))
	}
	e.overflow, e.trap = overflowSpill, trap
	return e
}

// Name implements coherent.Engine ("Dir4NB", "Dir2B", "LimitLESS4", ...).
func (e *Engine) Name() string {
	switch e.overflow {
	case overflowBroadcast:
		return fmt.Sprintf("Dir%dB", e.ptrs)
	case overflowSpill:
		return fmt.Sprintf("LimitLESS%d", e.ptrs)
	}
	return fmt.Sprintf("Dir%dNB", e.ptrs)
}

// Pointers returns i.
func (e *Engine) Pointers() int { return e.ptrs }

// TrapCycles returns the LimitLESS software-handler cost (0 for Dir_iNB
// and Dir_iB).
func (e *Engine) TrapCycles() sim.Time { return e.trap }

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
	return slices.Contains(en.ptrs, n) || slices.Contains(en.spill, n)
}

func (en *entry) drop(n coherent.NodeID) {
	if i := slices.Index(en.ptrs, n); i >= 0 {
		en.ptrs = slices.Delete(en.ptrs, i, i+1)
	} else if i := slices.Index(en.spill, n); i >= 0 {
		en.spill = slices.Delete(en.spill, i, i+1)
	}
}

// StartMiss implements coherent.Engine.
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
func (e *Engine) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	switch msg.Type {
	case coherent.MsgReadReq:
		if en.state == coherent.DirDirty && en.owner != msg.Requester {
			en.pend = &pending{req: *msg, stage: stageWb, wbFrom: en.owner}
			m.Send(coherent.Msg{
				Type: coherent.MsgWbReq, Src: m.Home(msg.Block), Dst: en.owner,
				Block: msg.Block, Requester: msg.Requester, Aux: coherent.NoNode, AckTo: coherent.NoNode,
			})
			return
		}
		e.admitRead(m, en, msg)
	case coherent.MsgWriteReq:
		m.SerializeWrite(msg)
		if en.state == coherent.DirDirty && en.owner != msg.Requester {
			en.pend = &pending{req: *msg, stage: stageWb, wbFrom: en.owner}
			m.Send(coherent.Msg{
				Type: coherent.MsgWbReq, Src: m.Home(msg.Block), Dst: en.owner,
				Block: msg.Block, Requester: msg.Requester, Write: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
			})
			return
		}
		e.startInvalidation(m, en, msg)
	default:
		panic("limited: unexpected gated request " + msg.Type.String())
	}
}

// admitRead records the requester, handling pointer overflow per the
// engine's policy, then serves the data.
func (e *Engine) admitRead(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	home := m.Home(msg.Block)
	trap := sim.Time(0)
	switch {
	case en.recorded(msg.Requester):
		// Re-read after a silent replacement; pointer already present.
	case len(en.ptrs) < e.ptrs:
		en.ptrs = append(en.ptrs, msg.Requester)
	case e.overflow == overflowBroadcast:
		// Dir_iB: set the overflow bit; the copy is unrecorded.
		en.broadcast = true
		m.CtrAt(home).PointerEvicts++ // counts overflow events for every policy
	case e.overflow == overflowSpill:
		// LimitLESS: the home's processor traps to software and spills
		// the new pointer.
		i, _ := slices.BinarySearch(en.spill, msg.Requester)
		en.spill = slices.Insert(en.spill, i, msg.Requester)
		m.CtrAt(home).PointerEvicts++
		trap = e.trap
	default:
		// Dir_iNB: invalidate a round-robin victim pointer first.
		victim := en.ptrs[en.rr%len(en.ptrs)]
		en.rr++
		m.CtrAt(home).PointerEvicts++
		en.pend = &pending{req: *msg, stage: stageEvict, acksLeft: 1, wbFrom: coherent.NoNode}
		sendInvs(m, msg.Block, msg.Requester, victim)
		return
	}
	e.serveRead(m, en, msg, trap)
}

// serveRead replies with the data. LimitLESS replies from its directory
// handler at the home, trap cycles later: a hop taken on every read,
// zero cycles long when nothing spilled.
func (e *Engine) serveRead(m *coherent.Machine, en *entry, msg *coherent.Msg, trap sim.Time) {
	if en.state == coherent.DirUncached {
		en.state = coherent.DirShared
	}
	b, req := msg.Block, msg.Requester
	if e.overflow == overflowSpill {
		m.ScheduleAt(m.Home(b), trap, func() { sendData(m, b, req) })
		return
	}
	sendData(m, b, req)
}

// sendData reads block b from memory and replies to requester req.
func sendData(m *coherent.Machine, b coherent.BlockID, req coherent.NodeID) {
	m.ReplyFromMemory(coherent.Msg{
		Type: coherent.MsgDataReply, Src: m.Home(b), Dst: req, Block: b,
		Requester: req, HasData: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	}, coherent.ServeNone)
}

// startInvalidation launches the write-miss invalidation round. Dir_iNB
// and Dir_iB send it at once, in pointer order, or to every other node
// once the Dir_iB overflow bit is set. LimitLESS sends it node-sorted
// from its directory handler, which first reads the software table if
// pointers spilled: one trap plus a quarter trap per spilled sharer,
// the "(P-4) software handler delay" of the paper's Table 1.
func (e *Engine) startInvalidation(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	home := m.Home(msg.Block)
	var targets []coherent.NodeID
	if en.broadcast {
		m.CtrAt(home).Broadcasts++
		targets = make([]coherent.NodeID, m.Cfg.Procs)
		for n := range targets {
			targets[n] = coherent.NodeID(n)
		}
	} else {
		targets = slices.Concat(en.ptrs, en.spill)
	}
	b, req := msg.Block, msg.Requester
	targets = slices.DeleteFunc(targets, func(n coherent.NodeID) bool { return n == req })
	if len(targets) == 0 {
		e.grantWrite(m, en, msg)
		return
	}
	en.pend = &pending{req: *msg, stage: stageInv, wbFrom: coherent.NoNode, acksLeft: len(targets)}
	if e.overflow != overflowSpill {
		sendInvs(m, b, req, targets...)
		return
	}
	slices.Sort(targets)
	delay := sim.Time(0)
	spilled := len(en.spill)
	if slices.Contains(en.spill, req) {
		spilled--
	}
	if spilled > 0 {
		m.CtrAt(home).Broadcasts++ // counts software-assisted invalidation rounds
		delay = e.trap + sim.Time(spilled)*e.trap/4
	}
	m.ScheduleAt(home, delay, func() { sendInvs(m, b, req, targets...) })
}

// sendInvs sends the home's invalidations of block b on behalf of
// requester req.
func sendInvs(m *coherent.Machine, b coherent.BlockID, req coherent.NodeID, targets ...coherent.NodeID) {
	home := m.Home(b)
	for _, n := range targets {
		m.CtrAt(home).Invalidations++
		m.Send(coherent.Msg{
			Type: coherent.MsgInv, Src: home, Dst: n, Block: b,
			Requester: req, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	}
}

func (e *Engine) grantWrite(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	en.pend = nil
	en.state = coherent.DirDirty
	en.owner = msg.Requester
	en.ptrs = []coherent.NodeID{msg.Requester}
	en.broadcast = false
	en.spill = nil
	m.ReplyFromMemory(coherent.Msg{
		Type: coherent.MsgWriteReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
		Requester: msg.Requester, HasData: true, Aux: coherent.NoNode, AckTo: coherent.NoNode, RelHome: true,
	}, coherent.ServeNone)
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
			e.serveRead(m, en, &p.req, 0)
		case stageInv:
			e.grantWrite(m, en, &p.req)
		default:
			panic("limited: InvAck in wrong stage")
		}
	case coherent.MsgWbData:
		m.CtrAt(msg.Dst).Writebacks++
		m.Store.OwnerValue(msg.Block, msg.Data)
		en.drop(msg.Src)
		if en.owner == msg.Src {
			en.owner = coherent.NoNode
			en.state = coherent.DirShared
			if len(en.ptrs) == 0 && len(en.spill) == 0 && !en.broadcast {
				en.state = coherent.DirUncached
			}
		}
		if p := en.pend; p != nil && p.stage == stageWb && p.wbFrom == msg.Src {
			req := &p.req
			en.pend = nil
			if msg.Write {
				// RM_WW recall: the demoted owner keeps a shared copy.
				en.ptrs = append(en.ptrs, msg.Src)
				en.state = coherent.DirShared
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
		m.Send(coherent.Msg{
			Type: coherent.MsgInvAck, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			Requester: msg.Requester, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
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
		m.Send(coherent.Msg{
			Type: coherent.MsgWbData, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			HasData: true, Data: data, Write: !msg.Write, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
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
	m.Send(coherent.Msg{
		Type: coherent.MsgWbData, Src: n, Dst: m.Home(ln.Block), Block: ln.Block,
		HasData: true, Data: ln.Val, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

// DescribeBlock implements coherent.BlockDumper for stall diagnostics.
func (e *Engine) DescribeBlock(b coherent.BlockID) string {
	en, _ := e.m.Dir(b).(*entry)
	if en == nil {
		return "uncached (no entry)"
	}
	var s string
	if e.overflow == overflowSpill {
		s = fmt.Sprintf("%s owner=%d hw=%v sw=%v", en.state, en.owner, en.ptrs, en.spill)
	} else {
		s = fmt.Sprintf("%s owner=%d ptrs=%v broadcast=%v", en.state, en.owner, en.ptrs, en.broadcast)
	}
	if p := en.pend; p != nil {
		s += fmt.Sprintf(" pending{%s from %d, stage=%d, wbFrom=%d, acksLeft=%d}",
			p.req.Type, p.req.Requester, p.stage, p.wbFrom, p.acksLeft)
	}
	return s
}

// DirectoryBits implements coherent.Engine using the paper's
// B·i·n·log n: i pointers per block at each of the n homes. No state
// bits are counted, nor the LimitLESS software table, which lives in
// ordinary memory.
func (e *Engine) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 {
	return int64(blocksPerNode) * int64(cfg.Procs) * int64(e.ptrs) * cfg.PointerBits()
}
