// Package limitless implements the LimitLESS_i directory protocol of
// Chaiken, Kubiatowicz and Agarwal (ASPLOS-IV 1991), the
// software-extended limited directory the paper compares against in
// Tables 1 and 2.
//
// The home keeps i hardware pointers per block. When they overflow,
// the processor at the home is interrupted and the excess pointers are
// spilled to a software-managed table in normal memory. Correctness
// matches the full-map scheme exactly — every sharer is recorded — but
// each trap to software costs TrapCycles at the home, charged when a
// pointer spills and again when a write miss must consult the software
// table to invalidate the spilled sharers. That software-handler delay
// is the scheme's disadvantage the paper cites ("2P+2 plus (P-4)
// software handler delay" for LimitLESS_4).
package limitless

import (
	"fmt"
	"sort"

	"dircc/internal/cache"
	"dircc/internal/coherent"
	"dircc/internal/sim"
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
	state dirState
	// hw holds the hardware pointers (at most i).
	hw []coherent.NodeID
	// sw holds the software-extended pointers (unbounded).
	sw    map[coherent.NodeID]bool
	owner coherent.NodeID
	pend  *pending
}

type stage uint8

const (
	stageWb stage = iota + 1
	stageInv
)

type pending struct {
	req      *coherent.Msg
	stage    stage
	wbFrom   coherent.NodeID
	acksLeft int
}

// Engine implements LimitLESS_i for one machine.
type Engine struct {
	ptrs int
	trap sim.Time
	m    *coherent.Machine
}

// DefaultTrapCycles is the software-handler cost charged per directory
// trap (pointer spill, or reading the spilled set on a write miss).
// LimitLESS on Alewife reported full-map-normalized overheads consistent
// with a few tens of cycles per trap on a 33 MHz Sparcle; 50 cycles is
// a representative value at this simulator's scale.
const DefaultTrapCycles sim.Time = 50

// New returns a LimitLESS_i engine with the default trap cost.
func New(i int) *Engine { return NewWithTrap(i, DefaultTrapCycles) }

// NewWithTrap returns a LimitLESS_i engine with an explicit software
// trap cost in cycles.
func NewWithTrap(i int, trap sim.Time) *Engine {
	if i < 1 {
		panic(fmt.Sprintf("limitless: need at least 1 pointer, got %d", i))
	}
	if trap < 1 {
		panic(fmt.Sprintf("limitless: trap cost must be >= 1 cycle, got %d", trap))
	}
	return &Engine{ptrs: i, trap: trap}
}

// Name implements coherent.Engine ("LimitLESS4", ...).
func (e *Engine) Name() string { return fmt.Sprintf("LimitLESS%d", e.ptrs) }

// Pointers returns i.
func (e *Engine) Pointers() int { return e.ptrs }

// TrapCycles returns the configured software-handler cost.
func (e *Engine) TrapCycles() sim.Time { return e.trap }

// Prepare implements coherent.Preparer: directory records live in the
// machine's per-home-node dir storage, so each record is only ever
// touched by its home's lane under the sharded kernel.
func (e *Engine) Prepare(m *coherent.Machine) { e.m = m }

func (e *Engine) entry(b coherent.BlockID) *entry {
	en, _ := e.m.Dir(b).(*entry)
	if en == nil {
		en = &entry{owner: coherent.NoNode, sw: make(map[coherent.NodeID]bool)}
		e.m.SetDir(b, en)
	}
	return en
}

func (en *entry) recorded(n coherent.NodeID) bool {
	for _, p := range en.hw {
		if p == n {
			return true
		}
	}
	return en.sw[n]
}

func (en *entry) drop(n coherent.NodeID) {
	for i, p := range en.hw {
		if p == n {
			en.hw = append(en.hw[:i], en.hw[i+1:]...)
			return
		}
	}
	delete(en.sw, n)
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
		panic("limitless: unexpected gated request " + msg.Type.String())
	}
}

// admitRead records the requester — spilling to software on overflow —
// and serves the data.
func (e *Engine) admitRead(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	trap := sim.Time(0)
	switch {
	case en.recorded(msg.Requester):
		// Already recorded (re-read after a silent replacement).
	case len(en.hw) < e.ptrs:
		en.hw = append(en.hw, msg.Requester)
	default:
		// Pointer overflow: the home's processor traps to software and
		// spills the new pointer.
		en.sw[msg.Requester] = true
		m.CtrAt(m.Home(b)).PointerEvicts++ // counts software traps for this engine
		trap = e.trap
	}
	if en.state == uncached {
		en.state = shared
	}
	m.ScheduleAt(m.Home(b), trap, func() {
		m.ReadMem(b, func() {
			m.Send(&coherent.Msg{
				Type: coherent.MsgDataReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
				Requester: msg.Requester, HasData: true, Data: m.Store.Value(b), Aux: coherent.NoNode,
			})
			m.ReleaseHome(b)
		})
	})
}

// startInvalidation invalidates every recorded sharer. Consulting the
// software table costs one trap plus a per-spilled-pointer charge — the
// "(P-4) software handler delay" of the paper's Table 1.
func (e *Engine) startInvalidation(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	home := m.Home(b)
	pend := &pending{req: msg, stage: stageInv, wbFrom: coherent.NoNode}
	en.pend = pend
	targets := make([]coherent.NodeID, 0, len(en.hw)+len(en.sw))
	for _, n := range en.hw {
		if n != msg.Requester {
			targets = append(targets, n)
		}
	}
	swCount := 0
	for n := range en.sw {
		if n != msg.Requester {
			swCount++
			targets = append(targets, n)
		}
	}
	// Deterministic order despite the software map.
	sortNodes(targets)
	delay := sim.Time(0)
	if swCount > 0 {
		m.CtrAt(home).Broadcasts++ // counts software-assisted invalidation rounds
		delay = e.trap + sim.Time(swCount)*e.trap/4
	}
	if len(targets) == 0 {
		e.grantWrite(m, en, msg)
		return
	}
	pend.acksLeft = len(targets)
	m.ScheduleAt(home, delay, func() {
		for _, n := range targets {
			m.CtrAt(home).Invalidations++
			m.Send(&coherent.Msg{
				Type: coherent.MsgInv, Src: home, Dst: n, Block: b,
				Requester: msg.Requester, Aux: coherent.NoNode,
			})
		}
	})
}

func sortNodes(ns []coherent.NodeID) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j] < ns[j-1]; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func (e *Engine) grantWrite(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	en.pend = nil
	en.state = dirty
	en.owner = msg.Requester
	en.hw = []coherent.NodeID{msg.Requester}
	en.sw = make(map[coherent.NodeID]bool)
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
		if p == nil || p.stage != stageInv || p.acksLeft <= 0 {
			panic("limitless: unexpected InvAck")
		}
		p.acksLeft--
		if p.acksLeft == 0 {
			e.grantWrite(m, en, p.req)
		}
	case coherent.MsgWbData:
		m.CtrAt(msg.Dst).Writebacks++
		m.Store.WritebackValue(msg.Block, msg.Data)
		en.drop(msg.Src)
		if en.owner == msg.Src {
			en.owner = coherent.NoNode
			en.state = shared
			if len(en.hw) == 0 && len(en.sw) == 0 {
				en.state = uncached
			}
		}
		if p := en.pend; p != nil && p.stage == stageWb && p.wbFrom == msg.Src {
			req := p.req
			en.pend = nil
			if msg.Write {
				en.hw = append(en.hw, msg.Src) // demoted owner keeps a copy
				en.state = shared
			}
			if req.Type == coherent.MsgReadReq {
				e.admitRead(m, en, req)
			} else {
				e.startInvalidation(m, en, req)
			}
		}
	default:
		panic("limitless: unexpected home message " + msg.Type.String())
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
			panic("limitless: DataReply without matching read txn")
		}
		m.CompleteTxn(txn, cache.Valid, msg.Data, nil)
	case coherent.MsgWriteReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || !txn.Write {
			panic("limitless: WriteReply without matching write txn")
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
			return
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
		panic("limitless: unexpected cache message " + msg.Type.String())
	}
}

// OnEvict implements coherent.Engine.
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
	sw := make([]coherent.NodeID, 0, len(en.sw))
	for n := range en.sw {
		sw = append(sw, n)
	}
	sort.Slice(sw, func(i, j int) bool { return sw[i] < sw[j] })
	s := fmt.Sprintf("%s owner=%d hw=%v sw=%v", en.state, en.owner, en.hw, sw)
	if p := en.pend; p != nil {
		s += fmt.Sprintf(" pending{%s from %d, stage=%d, wbFrom=%d, acksLeft=%d}",
			p.req.Type, p.req.Requester, p.stage, p.wbFrom, p.acksLeft)
	}
	return s
}

// DirectoryBits implements coherent.Engine: only the hardware pointers
// count (the software table lives in ordinary memory).
func (e *Engine) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 {
	n := int64(cfg.Procs)
	return int64(blocksPerNode) * n * int64(e.ptrs) * int64(ceilLog2(cfg.Procs))
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
