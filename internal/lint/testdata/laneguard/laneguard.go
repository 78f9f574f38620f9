// Fixture for the laneguard analyzer: handler code in an engine
// package must not reach into another node's per-node state with a
// directory-, chain- or message-derived index outside the scheduling
// façade, and no code in the package may mutate Machine.Ctr.
package laneguard

import (
	"dircc/internal/cache"
	"dircc/internal/coherent"
	"dircc/internal/stats"
)

// meta is this engine's per-line chain metadata; laneguard learns the
// type from the ln.Meta assertions below and treats stores of
// non-resident node indices into its fields as cross-lane leaks.
type meta struct {
	owner coherent.NodeID
}

// entry is the per-block directory record (home-resident: reached via
// m.Dir, so only the home lane ever touches it).
type entry struct {
	owner   coherent.NodeID
	sharers map[coherent.NodeID]bool
}

// engine has all five handler methods, which makes it an engine and
// subjects this package to the lane rules.
type engine struct {
	laneState
	global map[coherent.BlockID]int
	lanes  []int
}

// laneState is embedded in the engine, so its fields are engine state:
// the per-lane rule follows them into its methods.
type laneState struct {
	perLane []int
}

// bump indexes the per-lane slice by its parameter, a residency
// requirement every caller must meet.
func (s *laneState) bump(n coherent.NodeID) { s.perLane[n]++ }

func (e *engine) entry(m *coherent.Machine, b coherent.BlockID) *entry {
	en, _ := m.Dir(b).(*entry)
	if en == nil {
		en = &entry{owner: coherent.NoNode, sharers: make(map[coherent.NodeID]bool)}
		m.SetDir(b, en)
	}
	return en
}

// StartMiss is clean: it runs at txn.Node and only touches resident
// state and the synchronized Send surface.
func (e *engine) StartMiss(m *coherent.Machine, txn *coherent.Txn) {
	m.Send(&coherent.Msg{
		Type: coherent.MsgReadReq, Src: txn.Node, Dst: m.Home(txn.Block),
		Block: txn.Block, Requester: txn.Node, Aux: coherent.NoNode,
		ToDir: true, Gated: true,
	})
}

// HomeRequest mutates other nodes' caches with directory-derived
// indices — the classic cross-lane violations — and indexes per-lane
// engine state with a foreign node.
func (e *engine) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(m, msg.Block)
	e.global[msg.Block]++ // want `engine-global map`
	if en.owner != coherent.NoNode {
		m.Nodes[en.owner].Cache.Lookup(msg.Block) // want `not resident`
		m.Invalidate(en.owner, msg.Block)         // want `m.Invalidate`
		e.lanes[en.owner]++                       // want `per-lane engine state`
	}
	for n := range en.sharers {
		m.Invalidate(n, msg.Block) // want `m.Invalidate`
	}
	en.owner = msg.Requester
	m.ReleaseHome(msg.Block)
}

// HomeMsg routes the cross-lane work through the scheduling façade:
// inside the re-based closure the scheduled index is the resident lane.
// DeferAt is equally sanctioned — but only when the ISSUER is the
// entry lane, since replay order is keyed to the issuing event.
func (e *engine) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(m, msg.Block)
	owner := en.owner
	if owner == coherent.NoNode {
		return
	}
	m.ScheduleAt(owner, 1, func() {
		m.Invalidate(owner, msg.Block)
	})
	m.DeferAt(msg.Dst, owner, func() {
		e.lanes[owner]++
	})
	m.DeferAt(owner, msg.Dst, func() { // want `m.DeferAt issuer`
		e.lanes[msg.Dst]++
	})
}

// CacheMsg indexes embedded per-lane state through a helper, touches
// its own node's line (fine: message-carried indices stored into the
// handler's own line are plain data), reaches into a foreign node's
// line and stores a chain link there (a leak another lane will read
// concurrently), and carries one reviewed suppression.
func (e *engine) CacheMsg(m *coherent.Machine, msg *coherent.Msg) {
	e.bump(msg.Src) // want `per-lane engine state`
	e.bump(msg.Dst) // the resident node: no finding
	ln := m.Nodes[msg.Dst].Cache.Lookup(msg.Block)
	if ln == nil {
		return
	}
	mt, _ := ln.Meta.(*meta)
	if mt != nil {
		mt.owner = msg.Requester // own line: plain data, no finding
	}
	prev := m.Nodes[msg.Src].Cache.Lookup(msg.Block) // want `not resident`
	if pm, _ := prev.Meta.(*meta); pm != nil {
		pm.owner = msg.Dst // want `chain-link store`
	}
	//dirccvet:allow laneguard read-only diagnostic peek, torn reads are benign here
	_ = m.Nodes[msg.Src].Cache
}

// OnEvict follows a chain pointer out of the dispatched node's line.
func (e *engine) OnEvict(m *coherent.Machine, n coherent.NodeID, ln *cache.Line) {
	mt, _ := ln.Meta.(*meta)
	if mt == nil {
		return
	}
	if mt.owner != coherent.NoNode && mt.owner != n {
		m.Nodes[mt.owner].Cache.Lookup(ln.Block) // want `not resident`
	}
}

// The R6 counter rule covers every function in the package, handler-
// reachable or not: the machine counters are shared by all lanes.

func badCtrWrite(m *coherent.Machine, n coherent.NodeID) {
	m.Ctr.Invalidations++      // want `handlers on a sharded machine must count through m.CtrAt`
	m.Ctr.Writebacks += 2      // want `handlers on a sharded machine must count through m.CtrAt`
	m.Ctr.MsgByType["Inv"] = 1 // want `handlers on a sharded machine must count through m.CtrAt`
	_ = n
}

func goodCtrAt(m *coherent.Machine, n coherent.NodeID) {
	m.CtrAt(n).Invalidations++
}

func goodCtrRead(m *coherent.Machine) uint64 {
	// Reading the merged counters (reports, assertions) is fine.
	return m.Ctr.Invalidations + m.Ctr.Writebacks
}

func badCtrAlias(m *coherent.Machine) **stats.Counters {
	return &m.Ctr // want `takes the address of Machine.Ctr`
}

func badCtrAliasNested(m *coherent.Machine) {
	h := &m.Ctr.ReadMissCycles // want `takes the address of Machine.Ctr`
	h.Observe(1)
}

func badCtrMethod(m *coherent.Machine, other *stats.Counters) {
	m.Ctr.Add(other)                 // want `calls Add through Machine.Ctr`
	m.Ctr.CountMsg("Inv", 8, 2)      // want `calls CountMsg through Machine.Ctr`
	m.Ctr.ReadMissCycles.Observe(40) // want `calls Observe through Machine.Ctr`
}

func goodCtrMethodValueRecv(m *coherent.Machine) {
	// A value-receiver method copies and cannot mutate the counters.
	_, _ = m.Ctr.ReadMissCycles.MarshalJSON()
}

func goodCtrAtMethod(m *coherent.Machine, n coherent.NodeID, other *stats.Counters) {
	// Mutating through the lane-local sink is the sanctioned route.
	m.CtrAt(n).Add(other)
	m.CtrAt(n).ReadMissCycles.Observe(40)
}
