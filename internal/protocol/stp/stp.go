// Package stp implements the Scalable Tree Protocol of Nilsson and
// Stenström (binary variant), the balanced-tree baseline of the paper's
// Section 2.2: a Dir_2Tree_2 scheme that builds one balanced binary
// tree per block top-down.
//
// Read misses are expensive (the paper's "4 to 8" messages): the
// request descends from the root to the least-filled subtree before the
// requester is adopted, supplied, and the home notified. Write misses
// invalidate in logarithmic time by fanning out from the root with
// bottom-up acknowledgment aggregation. Replacement tears down the
// subtree below the replaced line, with the victim-buffer tombstone
// routing of internal/core keeping racing waves sequentially
// consistent; a descent that reaches a torn-down node bounces to the
// home, which re-roots the tree over the old root.
//
// All protocol actions are already message-structured — descent,
// adoption, teardown and ack aggregation each run at the node that owns
// the state they touch — so the engine is shard-safe by construction
// once its bookkeeping is lane-partitioned: directory entries live in
// the machine's per-home dir storage and the per-cache
// aggregation/victim-buffer records in slices indexed by node.
package stp

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
	state dirState
	root  coherent.NodeID
	owner coherent.NodeID
	pend  *pending
}

type pending struct {
	req *coherent.Msg
	// txn is the requester's outstanding transaction at serialization
	// time (reads only). Served-marking on Done/bounce must verify the
	// requester is still in THIS transaction: after a silent
	// replacement the requester may already be in a newer one, and
	// marking that served would defer a later write's invalidation onto
	// a read queued behind that very write — a deadlock.
	txn      *coherent.Txn
	acksLeft int
}

// stpMeta is the per-line tree state: up to two children plus their
// subtree populations for balance-directed insertion routing.
type stpMeta struct {
	children [2]coherent.NodeID
	counts   [2]int
}

func newMeta() *stpMeta {
	return &stpMeta{children: [2]coherent.NodeID{coherent.NoNode, coherent.NoNode}}
}

type aggKey struct {
	n coherent.NodeID
	b coherent.BlockID
}

type agg struct {
	armed bool
	left  int
	to    coherent.NodeID
	toDir bool
	// req is the writer whose wave this aggregation belongs to, carried
	// onto the aggregated ack for latency attribution.
	req coherent.NodeID
}

// Engine is the STP engine for one machine. All mutable state is
// lane-partitioned for the sharded kernel: directory entries live in
// the machine's per-home dir storage (bound at Prepare), and the
// per-cache aggregation/victim-buffer records are slices indexed by
// the owning node, so every handler touches only its own slot.
type Engine struct {
	// m is the bound machine (coherent.Preparer); directory entries
	// are reached through m.Dir/m.SetDir so they are home-resident.
	m *coherent.Machine
	// aggs[n] tracks node n's bottom-up ack aggregations, keyed by
	// block. Only node n's lane reads or writes aggs[n].
	aggs []map[coherent.BlockID]*agg
	// tombs[n] retains the child pointers of node n's lines that died
	// without acknowledged coverage (replacement, Replace_INV) — the
	// victim buffer an ack-bearing Inv routes down so a write wave
	// racing an in-flight teardown still covers every copy below.
	tombs []map[coherent.BlockID][]coherent.NodeID
	// torn is verification-only ghost state: blocks that have had a
	// silent-replacement teardown at node n, after which dangling child
	// edges may legally form cycles (CheckShape reads the union over
	// nodes at quiesce). Never influences protocol behavior.
	torn []map[coherent.BlockID]bool
}

// New returns a binary STP engine.
func New() *Engine {
	return &Engine{}
}

// Prepare implements coherent.Preparer: directory entries live in the
// machine's per-home dir storage and the per-cache records in slices
// indexed by node, which is what makes the engine's state lane-local
// under the sharded kernel.
func (e *Engine) Prepare(m *coherent.Machine) {
	e.m = m
	e.aggs = make([]map[coherent.BlockID]*agg, m.Cfg.Procs)
	e.tombs = make([]map[coherent.BlockID][]coherent.NodeID, m.Cfg.Procs)
	e.torn = make([]map[coherent.BlockID]bool, m.Cfg.Procs)
	for i := 0; i < m.Cfg.Procs; i++ {
		e.aggs[i] = make(map[coherent.BlockID]*agg)
		e.tombs[i] = make(map[coherent.BlockID][]coherent.NodeID)
		e.torn[i] = make(map[coherent.BlockID]bool)
	}
}

// Name implements coherent.Engine.
func (e *Engine) Name() string { return "stp" }

func (e *Engine) entry(b coherent.BlockID) *entry {
	en, _ := e.m.Dir(b).(*entry)
	if en == nil {
		en = &entry{root: coherent.NoNode, owner: coherent.NoNode}
		e.m.SetDir(b, en)
	}
	return en
}

func metaOf(ln *cache.Line) *stpMeta {
	if meta, ok := ln.Meta.(*stpMeta); ok {
		return meta
	}
	return nil
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
		ToDir: true, Gated: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

// HomeRequest implements coherent.Engine.
func (e *Engine) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	b := msg.Block
	home := m.Home(b)
	switch msg.Type {
	case coherent.MsgReadReq:
		if en.root == coherent.NoNode || en.root == msg.Requester {
			// Empty tree, or the recorded root re-reading after a
			// silent replacement: serve directly.
			e.directReply(m, en, msg)
			return
		}
		// Descend from the root; the gate stays held until the adopter
		// confirms with Done (or the descent bounces).
		en.pend = &pending{req: msg, txn: m.Txn(msg.Requester, b)}
		m.Send(&coherent.Msg{
			Type: coherent.MsgFwd, Src: home, Dst: en.root, Block: b,
			Requester: msg.Requester, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	case coherent.MsgWriteReq:
		m.SerializeWrite(msg)
		if en.root == coherent.NoNode {
			e.grantWrite(m, en, msg)
			return
		}
		en.pend = &pending{req: msg, acksLeft: 1}
		m.CtrAt(home).Invalidations++
		m.Send(&coherent.Msg{
			Type: coherent.MsgInv, Src: home, Dst: en.root, Block: b,
			Requester: msg.Requester, AckTo: home, AckDir: true, Aux: coherent.NoNode,
		})
	default:
		panic("stp: unexpected gated request " + msg.Type.String())
	}
}

func (e *Engine) directReply(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	en.state = shared
	en.root = msg.Requester
	m.ReadMem(b, func() {
		e.markServed(m, msg.Requester, b)
		m.Send(&coherent.Msg{
			Type: coherent.MsgDataReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
			Requester: msg.Requester, HasData: true, Data: m.Store.Value(b),
			Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
		m.ReleaseHome(b)
	})
}

func (e *Engine) markServed(m *coherent.Machine, n coherent.NodeID, b coherent.BlockID) {
	if txn := m.Txn(n, b); txn != nil && !txn.Write {
		txn.Served = true
	}
}

// markServedPending marks a pend-tracked read served only if the
// requester's outstanding transaction is still the one serialized when
// the pend was created. ChainData and Done travel independently, so the
// requester may have completed, silently replaced, and issued a fresh
// read before the Done reaches home — that fresh read has not been
// serialized and must not be marked.
func (e *Engine) markServedPending(m *coherent.Machine, p *pending, b coherent.BlockID) {
	if txn := m.Txn(p.req.Requester, b); txn != nil && txn == p.txn && !txn.Write {
		txn.Served = true
	}
}

func (e *Engine) grantWrite(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	b := msg.Block
	en.pend = nil
	en.state = dirty
	en.owner = msg.Requester
	en.root = msg.Requester
	m.ReadMem(b, func() {
		// RelHome: the write commit and home-gate release ride a
		// companion event at the delivery instant on the home's own
		// lane, in place of the receiver's handler doing them inline.
		m.Send(&coherent.Msg{
			Type: coherent.MsgWriteReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
			Requester: msg.Requester, HasData: true, Data: m.Store.Value(b),
			Aux: coherent.NoNode, AckTo: coherent.NoNode, RelHome: true,
		})
	})
}

// HomeMsg implements coherent.Engine.
func (e *Engine) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	switch msg.Type {
	case coherent.MsgDone:
		// An adopter placed the requester; the read transaction at the
		// home is finished.
		if en.pend == nil {
			panic("stp: Done without a pending read")
		}
		e.markServedPending(m, en.pend, msg.Block)
		en.pend = nil
		m.ReleaseHome(msg.Block)
	case coherent.MsgFwd:
		// A descent bounced off a torn-down node: re-root the tree over
		// the old root and serve the requester from home.
		if en.pend == nil {
			panic("stp: bounced insert without a pending read")
		}
		p := en.pend
		req := p.req
		en.pend = nil
		oldRoot := en.root
		b := msg.Block
		en.root = req.Requester
		en.state = shared
		var ptrs []coherent.NodeID
		if oldRoot != coherent.NoNode && oldRoot != req.Requester {
			ptrs = []coherent.NodeID{oldRoot}
		}
		m.ReadMem(b, func() {
			e.markServedPending(m, p, b)
			m.Send(&coherent.Msg{
				Type: coherent.MsgDataReply, Src: m.Home(b), Dst: req.Requester, Block: b,
				Requester: req.Requester, HasData: true, Data: m.Store.Value(b),
				Ptrs: ptrs, Aux: coherent.NoNode, AckTo: coherent.NoNode,
			})
			m.ReleaseHome(b)
		})
	case coherent.MsgInvAck:
		m.CtrAt(msg.Dst).InvAcks++
		p := en.pend
		if p == nil || p.acksLeft <= 0 {
			panic("stp: unexpected InvAck at home")
		}
		p.acksLeft--
		if p.acksLeft == 0 {
			e.grantWrite(m, en, p.req)
		}
	case coherent.MsgWbData:
		m.CtrAt(msg.Dst).Writebacks++
		m.Store.WritebackValue(msg.Block, msg.Data)
		if en.owner == msg.Src {
			en.owner = coherent.NoNode
			if msg.Write {
				en.state = shared
			} else if en.root == msg.Src {
				en.root = coherent.NoNode
				en.state = uncached
			} else {
				en.state = shared
			}
		}
	default:
		panic("stp: unexpected home message " + msg.Type.String())
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
			panic("stp: DataReply without matching read txn")
		}
		meta := newMeta()
		for i, p := range msg.Ptrs {
			if i >= 2 {
				break
			}
			meta.children[i] = p
			meta.counts[i] = 1
		}
		m.CompleteTxn(txn, cache.Valid, msg.Data, meta)
	case coherent.MsgWriteReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || !txn.Write {
			panic("stp: WriteReply without matching write txn")
		}
		m.CompleteTxn(txn, cache.Exclusive, txn.Value, newMeta())
		// The home gate is released by the RelHome companion event on
		// the home's own lane (see grantWrite).
	case coherent.MsgChainData:
		txn := m.Txn(n, msg.Block)
		if txn == nil || txn.Write {
			panic("stp: ChainData without matching read txn")
		}
		m.CompleteTxn(txn, cache.Valid, msg.Data, newMeta())
	case coherent.MsgFwd:
		e.onInsert(m, node, msg)
	case coherent.MsgInv:
		e.onInv(m, node, msg)
	case coherent.MsgInvAck:
		e.onCacheAck(m, n, msg)
	case coherent.MsgReplaceInv:
		e.torn[n][msg.Block] = true
		ln := node.Cache.Lookup(msg.Block)
		if ln == nil || ln.State == cache.Invalid {
			return
		}
		children := liveChildren(ln)
		m.Invalidate(n, msg.Block)
		e.mergeTombs(n, msg.Block, children)
		e.sendReplaceInv(m, n, msg.Block, children)
	case coherent.MsgWbReq:
		panic("stp: WbReq unused by this engine")
	default:
		panic("stp: unexpected cache message " + msg.Type.String())
	}
}

// onInsert routes a descending read request: adopt the requester in a
// free child slot, or forward toward the smaller subtree, or bounce to
// the home if this node's copy is gone.
func (e *Engine) onInsert(m *coherent.Machine, node *coherent.Node, msg *coherent.Msg) {
	n := node.ID
	ln := node.Cache.Lookup(msg.Block)
	if ln == nil || ln.State == cache.Invalid {
		// Torn-down node: bounce to the home, which re-roots.
		m.Send(&coherent.Msg{
			Type: coherent.MsgFwd, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			Requester: msg.Requester, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
		return
	}
	meta := metaOf(ln)
	if meta == nil {
		meta = newMeta()
		ln.Meta = meta
	}
	if ln.State == cache.Exclusive {
		// A dirty root demotes itself and writes back before sharing.
		ln.State = cache.Valid
		m.Send(&coherent.Msg{
			Type: coherent.MsgWbData, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			HasData: true, Data: ln.Val, Write: true, ToDir: true,
			Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	}
	for i := 0; i < 2; i++ {
		if meta.children[i] == coherent.NoNode {
			meta.children[i] = msg.Requester
			meta.counts[i] = 1
			m.Send(&coherent.Msg{
				Type: coherent.MsgChainData, Src: n, Dst: msg.Requester, Block: msg.Block,
				Requester: msg.Requester, HasData: true, Data: ln.Val,
				Aux: coherent.NoNode, AckTo: coherent.NoNode,
			})
			m.Send(&coherent.Msg{
				Type: coherent.MsgDone, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
				Requester: msg.Requester, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
			})
			return
		}
	}
	// Both slots taken: descend into the smaller subtree.
	dir := 0
	if meta.counts[1] < meta.counts[0] {
		dir = 1
	}
	meta.counts[dir]++
	m.Send(&coherent.Msg{
		Type: coherent.MsgFwd, Src: n, Dst: meta.children[dir], Block: msg.Block,
		Requester: msg.Requester, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

// onInv mirrors the Dir_iTree_k wave handling: invalidate, fan out to
// children and victim-buffer tombstones, aggregate acks upward.
func (e *Engine) onInv(m *coherent.Machine, node *coherent.Node, msg *coherent.Msg) {
	n := node.ID
	if txn := m.Txn(n, msg.Block); txn != nil && !txn.Write && txn.Served {
		txn.Deferred = append(txn.Deferred, msg)
		return
	}
	b := msg.Block
	a := e.aggs[n][b]
	if a != nil && a.armed {
		e.sendAck(m, n, msg)
		return
	}
	if a == nil {
		a = &agg{}
		e.aggs[n][b] = a
	}
	a.armed = true
	a.to = msg.AckTo
	a.toDir = msg.AckDir
	a.req = msg.Requester
	var fanout []coherent.NodeID
	if ln := node.Cache.Lookup(msg.Block); ln != nil && ln.State != cache.Invalid {
		fanout = append(fanout, liveChildren(ln)...)
		m.Invalidate(node.ID, msg.Block)
	}
	for _, c := range e.tombs[n][b] {
		dup := false
		for _, f := range fanout {
			if f == c {
				dup = true
				break
			}
		}
		if !dup {
			fanout = append(fanout, c)
		}
	}
	delete(e.tombs[n], b)
	for _, c := range fanout {
		a.left++
		m.CtrAt(n).Invalidations++
		m.Send(&coherent.Msg{
			Type: coherent.MsgInv, Src: n, Dst: c, Block: msg.Block,
			Requester: msg.Requester, AckTo: n, Aux: coherent.NoNode,
		})
	}
	e.maybeFinishAgg(m, aggKey{n: n, b: b}, a)
}

func (e *Engine) onCacheAck(m *coherent.Machine, n coherent.NodeID, msg *coherent.Msg) {
	m.CtrAt(n).InvAcks++
	a := e.aggs[n][msg.Block]
	if a == nil {
		a = &agg{}
		e.aggs[n][msg.Block] = a
	}
	a.left--
	e.maybeFinishAgg(m, aggKey{n: n, b: msg.Block}, a)
}

func (e *Engine) maybeFinishAgg(m *coherent.Machine, key aggKey, a *agg) {
	if !a.armed || a.left != 0 {
		return
	}
	delete(e.aggs[key.n], key.b)
	m.Send(&coherent.Msg{
		Type: coherent.MsgInvAck, Src: key.n, Dst: a.to, Block: key.b,
		Requester: a.req, ToDir: a.toDir, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

func (e *Engine) sendAck(m *coherent.Machine, n coherent.NodeID, msg *coherent.Msg) {
	m.Send(&coherent.Msg{
		Type: coherent.MsgInvAck, Src: n, Dst: msg.AckTo, Block: msg.Block,
		Requester: msg.Requester, ToDir: msg.AckDir, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

func liveChildren(ln *cache.Line) []coherent.NodeID {
	meta := metaOf(ln)
	if meta == nil {
		return nil
	}
	var out []coherent.NodeID
	for _, c := range meta.children {
		if c != coherent.NoNode {
			out = append(out, c)
		}
	}
	return out
}

// mergeTombs unions children into node n's victim buffer for block b;
// pointers from different cache tenures may both have teardowns in
// flight.
func (e *Engine) mergeTombs(n coherent.NodeID, b coherent.BlockID, children []coherent.NodeID) {
	if len(children) == 0 {
		return
	}
	cur := e.tombs[n][b]
	for _, c := range children {
		dup := false
		for _, t := range cur {
			if t == c {
				dup = true
				break
			}
		}
		if !dup {
			cur = append(cur, c)
		}
	}
	e.tombs[n][b] = cur
}

func (e *Engine) sendReplaceInv(m *coherent.Machine, n coherent.NodeID, b coherent.BlockID, children []coherent.NodeID) {
	for _, c := range children {
		m.CtrAt(n).ReplaceInvs++
		m.Send(&coherent.Msg{
			Type: coherent.MsgReplaceInv, Src: n, Dst: c, Block: b,
			Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	}
}

// OnEvict implements coherent.Engine: subtree teardown with
// victim-buffer tombstones, writeback for exclusive lines.
func (e *Engine) OnEvict(m *coherent.Machine, n coherent.NodeID, ln *cache.Line) {
	switch ln.State {
	case cache.Valid:
		e.torn[n][ln.Block] = true
		children := liveChildren(ln)
		e.mergeTombs(n, ln.Block, children)
		e.sendReplaceInv(m, n, ln.Block, children)
	case cache.Exclusive:
		m.Send(&coherent.Msg{
			Type: coherent.MsgWbData, Src: n, Dst: m.Home(ln.Block), Block: ln.Block,
			HasData: true, Data: ln.Val, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	}
}

// DescribeBlock implements coherent.BlockDumper for stall diagnostics.
func (e *Engine) DescribeBlock(b coherent.BlockID) string {
	var en *entry
	if e.m != nil {
		en, _ = e.m.Dir(b).(*entry)
	}
	if en == nil {
		return "uncached (no entry)"
	}
	s := fmt.Sprintf("%s root=%d owner=%d", en.state, en.root, en.owner)
	if p := en.pend; p != nil {
		s += fmt.Sprintf(" pending{%s from %d, acksLeft=%d}", p.req.Type, p.req.Requester, p.acksLeft)
	}
	return s
}

// DirectoryBits implements coherent.Engine: two home pointers (root and
// latest) per block plus two child pointers and counts per cache line.
func (e *Engine) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 {
	n := int64(cfg.Procs)
	logn := int64(ceilLog2(cfg.Procs))
	return int64(blocksPerNode)*n*2*logn + int64(cfg.CacheLines())*n*2*2*logn
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
