// Package core implements the paper's tree-based coherence engines: its
// contribution, the Dir_iTree_k hybrid protocol (Engine), and the
// Scalable Tree Protocol baseline it is compared against (STP, see
// stp.go). Both keep one directory per block at its home and forward
// child pointers in the cache lines, and both embed forest, the one
// copy of the cache-side tree machinery: invalidation waves, subtree
// teardown on replacement, the victim buffer, and their model-checker
// hooks.
//
// In Dir_iTree_k the home directory of every block holds up to i
// pointers, each recording the root of a k-ary tree of caches holding
// the block; each cache line holds up to k forward child pointers. Read
// misses cost two messages like a limited directory — the home serves
// the data and, on pointer overflow, hands the requester one or two
// existing roots to adopt as children (the paper's Figure 6):
//
//	case 1: the requester is already recorded — serve, no change;
//	case 2: a pointer slot is free — record the requester at level 1;
//	case 3: two trees have equal height l — the requester adopts both
//	        roots as children, takes one slot at level l+1, and the
//	        other slot is freed;
//	case 4: otherwise the lowest tree's root becomes the requester's
//	        only child and that slot is re-pointed at level l+1.
//
// Write misses tear the trees down in parallel: the home sends one Inv
// per root, invalidations fan down the trees (forest.onInv),
// acknowledgments aggregate bottom-up, and each odd-indexed root
// acknowledges to its even-indexed sibling instead of the home, so the
// home receives at most ceil(m/2) acknowledgments for m roots (the
// paper's Figure 7 optimization).
//
// In both engines replacement of a valid line silently tears down the
// subtree below it with unacknowledged Replace_INV messages and never
// informs the home (forest.OnEvict); the resulting dangling pointers
// are tolerated by having every cache acknowledge every Inv it
// receives, forwarding to children only on the Valid/Exclusive ->
// Invalid transition.
package core

import (
	"fmt"
	"strconv"

	"dircc/internal/cache"
	"dircc/internal/coherent"
	"dircc/internal/stats"
)

// slot is one directory pointer: a tree root and that tree's height.
type slot struct {
	node  coherent.NodeID
	level int
}

// appendCanon appends the slot's text, "<node>@l<level>".
func (s slot) appendCanon(b []byte) []byte {
	b = strconv.AppendInt(b, int64(s.node), 10)
	b = append(b, "@l"...)
	return strconv.AppendInt(b, int64(s.level), 10)
}

type entry struct {
	state coherent.DirState
	slots []slot
	owner coherent.NodeID
	pend  *pending
}

type stage uint8

const (
	stageWb stage = iota + 1
	stageInv
)

// pending is an in-progress home transaction (the gate is held). It
// keeps the request by value: the delivered record is recycled when the
// handler returns.
type pending struct {
	req      coherent.Msg
	stage    stage
	wbFrom   coherent.NodeID
	acksLeft int
	next     *pending // free-list link
}

// treeMeta is the per-line protocol metadata: forward child pointers.
// A line adopts at most two roots, so the pointers live in buf. Records
// come in chunks and live on per-node free lists while no line holds
// them (see forest.newMeta).
type treeMeta struct {
	children []coherent.NodeID
	buf      [2]coherent.NodeID
	next     *treeMeta
}

// setChildren makes children, at most two, the line's child pointers,
// kept in meta's own storage.
func (meta *treeMeta) setChildren(children []coherent.NodeID) {
	meta.children = append(meta.buf[:0], children...)
}

// Engine implements Dir_iTree_k for one machine. Its cache-side state
// is the embedded forest's.
type Engine struct {
	forest
	ptrs  int // i
	arity int // k
	opts  Options
}

// Options tune protocol variants for ablation studies and extensions.
type Options struct {
	// NoSiblingAck disables the paper's Figure 7 optimization: every
	// root acknowledges the home directly instead of odd-indexed roots
	// acknowledging their even-indexed siblings. Used to measure how
	// much the home-offload pairing actually buys.
	NoSiblingAck bool
	// Update selects the update-based variant the paper mentions but
	// does not evaluate ("the write operation can be implemented by
	// employing either an invalidation or an update protocol"): writes
	// push the new value down the trees instead of tearing them down,
	// sharers keep their copies, and no line is ever exclusive. The
	// sharing trees persist across writes, so repeated
	// producer-consumer traffic avoids the re-miss storm at the cost of
	// updating every copy on every write.
	Update bool
}

// NewWithOptions returns a Dir_iTree_k engine with protocol variant
// options for ablation studies.
func NewWithOptions(i, k int, opts Options) *Engine {
	e := New(i, k)
	e.opts = opts
	return e
}

// New returns a Dir_iTree_k engine with i directory pointers and k-ary
// trees. The paper's headline configuration is New(4, 2).
func New(i, k int) *Engine {
	if i < 1 {
		panic(fmt.Sprintf("core: need at least 1 directory pointer, got %d", i))
	}
	if k < 1 {
		panic(fmt.Sprintf("core: tree arity must be >= 1, got %d", k))
	}
	return &Engine{ptrs: i, arity: k}
}

// Name implements coherent.Engine ("Dir4Tree2", ...).
func (e *Engine) Name() string {
	if e.opts.Update {
		return fmt.Sprintf("Dir%dTree%dU", e.ptrs, e.arity)
	}
	return fmt.Sprintf("Dir%dTree%d", e.ptrs, e.arity)
}

// UpdatesCopies implements coherent.UpdateProtocol.
func (e *Engine) UpdatesCopies() bool { return e.opts.Update }

// newPending takes a pending record for request msg from home's free
// list (forestNode.pends): a transaction that must wait for a writeback or
// acknowledgments holds one until it leaves the directory.
//
//dirccvet:hotpath
//go:noinline
func (e *Engine) newPending(home coherent.NodeID, msg *coherent.Msg, st stage, wbFrom coherent.NodeID) *pending {
	nd := &e.nodes[home]
	p := nd.pends
	if p == nil {
		//dirccvet:allow allocguard a home allocates a pending record only while more of its transactions wait than ever before
		p = new(pending)
	} else {
		nd.pends = p.next
	}
	*p = pending{req: *msg, stage: st, wbFrom: wbFrom}
	return p
}

// freePending returns p, which no directory entry names any more, to
// home's free list.
//
//dirccvet:hotpath
func (e *Engine) freePending(home coherent.NodeID, p *pending) {
	nd := &e.nodes[home]
	p.next, nd.pends = nd.pends, p
}

// Pointers returns i.
func (e *Engine) Pointers() int { return e.ptrs }

// Arity returns k.
func (e *Engine) Arity() int { return e.arity }

func (e *Engine) entry(b coherent.BlockID) *entry {
	en, _ := e.m.Dir(b).(*entry)
	if en == nil {
		en = &entry{owner: coherent.NoNode}
		e.m.SetDir(b, en)
	}
	return en
}

func (en *entry) slotOf(n coherent.NodeID) int {
	for i, s := range en.slots {
		if s.node == n {
			return i
		}
	}
	return -1
}

// StartMiss implements coherent.Engine.
//
//dirccvet:hotpath
func (e *Engine) StartMiss(m *coherent.Machine, txn *coherent.Txn) {
	typ := coherent.MsgReadReq
	upgrade := false
	if txn.Write {
		typ = coherent.MsgWriteReq
		// An upgrade (the writer already holds a valid copy) tells the
		// update variant's home not to re-record the writer: it already
		// has a forest position, which it keeps.
		if ln := m.Nodes[txn.Node].Cache.Lookup(txn.Block); ln != nil && ln == txn.Line && ln.State == cache.Valid {
			upgrade = true
		}
	}
	m.Send(coherent.Msg{
		Type: typ, Src: txn.Node, Dst: m.Home(txn.Block), Block: txn.Block,
		Requester: txn.Node, Data: txn.Value, HasData: txn.Write, Write: upgrade,
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
			en.pend = e.newPending(msg.Dst, msg, stageWb, en.owner)
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
			en.pend = e.newPending(msg.Dst, msg, stageWb, en.owner)
			m.Send(coherent.Msg{
				Type: coherent.MsgWbReq, Src: m.Home(msg.Block), Dst: en.owner,
				Block: msg.Block, Requester: msg.Requester, Write: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
			})
			return
		}
		e.startInvalidation(m, msg.Dst, en, msg)
	default:
		panic("core: unexpected gated request " + msg.Type.String())
	}
}

// admitRead runs the paper's Figure 6 read-miss directory algorithm and
// serves the data, piggybacking any adopted roots as Ptrs. The reply
// marks the read served as it leaves the home.
//
//dirccvet:hotpath
func (e *Engine) admitRead(m *coherent.Machine, en *entry, msg *coherent.Msg) {
	req := msg.Requester
	handoff := e.record(m.CtrAt(m.Home(msg.Block)), en, req)
	if en.state == coherent.DirUncached {
		en.state = coherent.DirShared
	}
	b := msg.Block
	if m.Tracing() {
		//dirccvet:allow allocguard trace-only label formatting
		m.TraceDir(b, fmt.Sprintf("reader %d adopts %v, %d roots", req, handoff, len(en.slots)))
	}
	m.ReplyFromMemory(coherent.Msg{
		Type: coherent.MsgDataReply, Src: m.Home(b), Dst: req, Block: b,
		Requester: req, HasData: true, Ptrs: handoff, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	}, coherent.ServeAny)
}

// record applies the paper's Figure 6 pointer algorithm for a new
// sharer and returns the roots the sharer must adopt as children. ctr
// is the caller's lane-local counter sink (m.CtrAt at the home); a nil
// sink is allowed (analytical use in tests) — only counters depend on
// it. It changes en.slots in place: the entry keeps its one slice.
//
//dirccvet:hotpath
func (e *Engine) record(ctr *stats.Counters, en *entry, req coherent.NodeID) coherent.Ptrs {
	var handoff coherent.Ptrs
	switch {
	case en.slotOf(req) >= 0:
		// Case 1: already recorded (typically a re-read after a silent
		// replacement). No pointer manipulation.
	case len(en.slots) < e.ptrs:
		// Case 2: free pointer.
		en.slots = append(en.slots, slot{node: req, level: 1})
	default:
		// Overflow: look for the lowest level present at least twice.
		if li := e.equalPair(en); li >= 0 {
			// Case 3: the requester adopts up to k equal-height trees;
			// one slot is re-pointed one level up, the others free.
			if ctr != nil {
				ctr.TreeMerges++
			}
			// The survivors move down in place, so the new slot fits
			// where an adopted root was.
			lvl := en.slots[li].level
			kept := en.slots[:0]
			for _, s := range en.slots {
				if s.level == lvl && handoff.Len() < e.arity && handoff.Len() < 2 {
					handoff.Add(s.node)
					continue
				}
				kept = append(kept, s)
			}
			en.slots = append(kept, slot{node: req, level: lvl + 1})
		} else {
			// Case 4: adopt the single lowest tree.
			if ctr != nil {
				ctr.TreeAdoptions++
			}
			low := 0
			for i, s := range en.slots {
				if s.level < en.slots[low].level {
					low = i
				}
			}
			handoff.Add(en.slots[low].node)
			en.slots[low] = slot{node: req, level: en.slots[low].level + 1}
		}
	}
	return handoff
}

// equalPair returns the index of a slot whose level appears at least
// twice (choosing the lowest such level), or -1.
func (e *Engine) equalPair(en *entry) int {
	best := -1
	for i, s := range en.slots {
		count := 0
		for _, t := range en.slots {
			if t.level == s.level {
				count++
			}
		}
		if count >= 2 && (best < 0 || s.level < en.slots[best].level) {
			best = i
		}
	}
	return best
}

// startInvalidation launches the paper's Figure 7 write-miss flow from
// home, the block's home node: one Inv per root, odd roots
// acknowledging to their even siblings (see SibAck). The update variant
// sends Update messages carrying the value instead.
//
//dirccvet:hotpath
func (e *Engine) startInvalidation(m *coherent.Machine, home coherent.NodeID, en *entry, msg *coherent.Msg) {
	b := msg.Block
	pend := e.newPending(home, msg, stageInv, coherent.NoNode)
	en.pend = pend
	waveType := coherent.MsgInv
	if e.opts.Update {
		waveType = coherent.MsgUpdate
	}
	// A level-1 slot is provably a childless singleton (children are
	// only handed out when a slot is created at level >= 2), so when it
	// names the requester itself the round trip can be skipped — the
	// writer's own copy is superseded by the grant. Requester slots at
	// higher levels stay in the wave: their subtrees need invalidating.
	writer := msg.Requester
	skip := func(s slot) bool { return s.node == writer && s.level == 1 }
	roots := len(en.slots)
	for _, s := range en.slots {
		if skip(s) {
			roots--
		}
	}
	if m.Tracing() {
		//dirccvet:allow allocguard trace-only label formatting
		m.TraceDir(b, fmt.Sprintf("writer %d: inv wave over %d roots", msg.Requester, roots))
	}
	idx := 0
	even := coherent.NoNode // the last even-indexed root: its odd sibling acks to it
	for _, s := range en.slots {
		if skip(s) {
			continue
		}
		inv := coherent.Msg{
			Type: waveType, Src: home, Dst: s.node, Block: b,
			Requester: msg.Requester, HasData: e.opts.Update, Data: msg.Data,
			Aux: coherent.NoNode,
		}
		switch {
		case e.opts.NoSiblingAck:
			// Ablation variant: every root acks the home.
			inv.AckTo = home
			inv.AckDir = true
			pend.acksLeft++
		case idx%2 == 0:
			// Even root: acks home, and absorbs its odd sibling's ack
			// if one exists.
			inv.AckTo = home
			inv.AckDir = true
			inv.SibAck = SibAck(idx, roots)
			pend.acksLeft++
			even = s.node
		default:
			// Odd root: acks its even sibling.
			inv.AckTo = even
			inv.AckDir = false
		}
		m.CtrAt(home).Invalidations++
		m.Send(inv)
		idx++
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
	b, req, upgrade := msg.Block, msg.Requester, msg.Write
	e.freePending(home, en.pend)
	en.pend = nil
	var handoff coherent.Ptrs
	if e.opts.Update {
		// The sharing trees survive and the writer keeps a shared copy.
		// An upgrading writer already has a forest position (leaf or
		// root) and keeps it untouched; only a forest-absent writer is
		// recorded like a new reader.
		en.state = coherent.DirShared
		if !upgrade {
			handoff = e.record(m.CtrAt(home), en, req)
		}
	} else {
		en.state = coherent.DirDirty
		en.owner = req
		en.slots = append(en.slots[:0], slot{node: req, level: 1})
	}
	if m.Tracing() {
		if e.opts.Update {
			//dirccvet:allow allocguard trace-only label formatting
			m.TraceDir(b, fmt.Sprintf("update committed, writer %d, %d roots", req, len(en.slots)))
		} else {
			//dirccvet:allow allocguard trace-only label formatting
			m.TraceDir(b, fmt.Sprintf("dirty owner %d", en.owner))
		}
	}
	// RelHome: the write commit and home-gate release ride a companion
	// event at the delivery instant on the home's own lane, in place of
	// the receiver's handler doing them inline.
	m.ReplyFromMemory(coherent.Msg{
		Type: coherent.MsgWriteReply, Src: home, Dst: req, Block: b,
		Requester: req, HasData: true, Ptrs: handoff, Aux: coherent.NoNode,
		AckTo: coherent.NoNode, RelHome: true,
	}, coherent.ServeNone)
}

// HomeMsg implements coherent.Engine.
//
//dirccvet:hotpath
func (e *Engine) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	switch msg.Type {
	case coherent.MsgInvAck:
		m.CtrAt(msg.Dst).InvAcks++
		p := en.pend
		if p == nil || p.stage != stageInv || p.acksLeft <= 0 {
			panic("core: unexpected InvAck at home")
		}
		p.acksLeft--
		if p.acksLeft == 0 {
			e.grantWrite(m, msg.Dst, en, &p.req)
		}
	case coherent.MsgWbData:
		m.CtrAt(msg.Dst).Writebacks++
		m.Store.OwnerValue(msg.Block, msg.Data)
		if en.owner == msg.Src {
			en.owner = coherent.NoNode
			en.state = coherent.DirShared
			if len(en.slots) == 0 {
				en.state = coherent.DirUncached
			}
		}
		if p := en.pend; p != nil && p.stage == stageWb && p.wbFrom == msg.Src {
			en.pend = nil
			// On an RM_WW recall the demoted owner keeps a shared copy
			// and stays recorded in its slot; on WM_WW it was
			// invalidated but the stale slot is harmlessly swept by the
			// upcoming invalidation round.
			if p.req.Type == coherent.MsgReadReq {
				e.admitRead(m, en, &p.req)
			} else {
				e.startInvalidation(m, msg.Dst, en, &p.req)
			}
			e.freePending(msg.Dst, p)
		}
	default:
		panic("core: unexpected home message " + msg.Type.String())
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
			panic("core: DataReply without matching read txn")
		}
		meta := e.newMeta(n)
		meta.setChildren(msg.Ptrs.Nodes())
		m.CompleteTxn(txn, cache.Valid, msg.Data, meta)
	case coherent.MsgWriteReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || !txn.Write {
			panic("core: WriteReply without matching write txn")
		}
		if e.opts.Update {
			// An upgrading writer keeps its forest position: preserve
			// the children of the prior tree position (the home cannot
			// see leaf edges, so dropping them would orphan live
			// sharers from future update waves). A forest-absent writer
			// adopts whatever roots the home handed it.
			meta := e.newMeta(n)
			if msg.Ptrs.Len() > 0 {
				meta.setChildren(msg.Ptrs.Nodes())
			} else {
				meta.setChildren(nil)
				for _, c := range childrenOf(txn.Line) {
					if c != n {
						meta.children = append(meta.children, c)
					}
				}
			}
			e.freeMeta(n, txn.Line.Meta)
			m.CompleteTxn(txn, cache.Valid, txn.Value, meta)
		} else {
			// An upgrading writer's old metadata, if its copy survived
			// the wave, is replaced.
			e.freeMeta(n, txn.Line.Meta)
			meta := e.newMeta(n)
			meta.setChildren(nil)
			m.CompleteTxn(txn, cache.Exclusive, txn.Value, meta)
		}
		// The home gate is released by the RelHome companion event on
		// the home's own lane (see grantWrite).
	case coherent.MsgInv, coherent.MsgUpdate:
		e.onInv(m, node, msg)
	case coherent.MsgInvAck:
		e.onCacheAck(m, n, msg)
	case coherent.MsgReplaceInv:
		e.onReplaceInv(m, node, msg)
	case coherent.MsgWbReq:
		ln := node.Cache.Lookup(msg.Block)
		if ln == nil || ln.State != cache.Exclusive {
			return // voluntary writeback already ahead of us
		}
		data := ln.Val
		if msg.Write {
			meta := ln.Meta
			m.Invalidate(n, msg.Block)
			e.freeMeta(n, meta)
		} else {
			ln.State = cache.Valid
			m.TraceState(n, msg.Block, cache.Exclusive, cache.Valid)
		}
		m.Send(coherent.Msg{
			Type: coherent.MsgWbData, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			HasData: true, Data: data, Write: !msg.Write, ToDir: true,
			Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	default:
		panic("core: unexpected cache message " + msg.Type.String())
	}
}

// DirectoryBits implements coherent.Engine using the paper's formula
// B·n·2i·log n (directory pointers + levels) + C·k·log n (cache child
// pointers).
func (e *Engine) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 {
	n := int64(cfg.Procs)
	logn := cfg.PointerBits()
	dirBits := int64(blocksPerNode) * n * 2 * int64(e.ptrs) * logn
	cacheBits := int64(cfg.CacheLines()) * n * int64(e.arity) * logn
	return dirBits + cacheBits
}
