package core

import (
	"io"
	"strconv"

	"dircc/internal/cache"
	"dircc/internal/coherent"
)

// STP is the Scalable Tree Protocol of Nilsson and Stenström (binary
// variant), the balanced-tree baseline of the paper's Section 2.2: a
// Dir_2Tree_2 scheme that builds one balanced binary tree per block
// top-down.
//
// Read misses are expensive (the paper's "4 to 8" messages): the
// request descends from the root to the least-filled subtree before the
// requester is adopted, supplied, and the home notified. Write misses
// invalidate in logarithmic time with the forest's wave from the single
// root. Replacement tears down the subtree below the replaced line, and
// a descent that reaches a torn-down node bounces to the home, which
// re-roots the tree over the old root.
//
// Descent, adoption, teardown and ack aggregation each run at the node
// that owns the state they touch, so the engine is lane-local: the home
// keeps the root, the exclusive owner and a pending record per block,
// and each line its two children with their subtree populations.
type STP struct {
	forest
}

type stpEntry struct {
	state coherent.DirState
	root  coherent.NodeID
	owner coherent.NodeID
	pend  *stpPending
}

// stpPending is a request in progress at the home (the gate is held).
// It keeps the request by value: the delivered record is recycled when
// the handler returns.
type stpPending struct {
	req coherent.Msg
	// serial is the issue serial of the requester's outstanding
	// transaction at serialization time (reads only). Served-marking on
	// Done/bounce must verify the requester is still in THIS
	// transaction: after a silent replacement the requester may already
	// be in a newer one, and marking that served would defer a later
	// write's invalidation onto a read queued behind that very write — a
	// deadlock. The machine recycles transaction records, so the newer
	// transaction may sit in the very same record: only the serial tells
	// them apart.
	serial   uint64
	acksLeft int
}

// stpMeta is the per-line tree state: up to two children plus their
// subtree populations for balance-directed insertion routing.
type stpMeta struct {
	children [2]coherent.NodeID
	counts   [2]int
}

func newSTPMeta() *stpMeta {
	return &stpMeta{children: [2]coherent.NodeID{coherent.NoNode, coherent.NoNode}}
}

func stpMetaOf(ln *cache.Line) *stpMeta {
	if meta, ok := ln.Meta.(*stpMeta); ok {
		return meta
	}
	return nil
}

// NewSTP returns a binary STP engine.
func NewSTP() *STP {
	return &STP{}
}

// Name implements coherent.Engine.
func (e *STP) Name() string { return "stp" }

func (e *STP) entry(b coherent.BlockID) *stpEntry {
	en, _ := e.m.Dir(b).(*stpEntry)
	if en == nil {
		en = &stpEntry{root: coherent.NoNode, owner: coherent.NoNode}
		e.m.SetDir(b, en)
	}
	return en
}

// StartMiss implements coherent.Engine.
func (e *STP) StartMiss(m *coherent.Machine, txn *coherent.Txn) {
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
func (e *STP) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
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
		p := &stpPending{req: *msg}
		if txn := m.Txn(msg.Requester, b); txn != nil {
			p.serial = txn.Serial
		}
		en.pend = p
		m.Send(coherent.Msg{
			Type: coherent.MsgFwd, Src: home, Dst: en.root, Block: b,
			Requester: msg.Requester, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	case coherent.MsgWriteReq:
		m.SerializeWrite(msg)
		if en.root == coherent.NoNode {
			e.grantWrite(m, en, msg)
			return
		}
		en.pend = &stpPending{req: *msg, acksLeft: 1}
		m.CtrAt(home).Invalidations++
		m.Send(coherent.Msg{
			Type: coherent.MsgInv, Src: home, Dst: en.root, Block: b,
			Requester: msg.Requester, AckTo: home, AckDir: true, Aux: coherent.NoNode,
		})
	default:
		panic("stp: unexpected gated request " + msg.Type.String())
	}
}

func (e *STP) directReply(m *coherent.Machine, en *stpEntry, msg *coherent.Msg) {
	b := msg.Block
	en.state = coherent.DirShared
	en.root = msg.Requester
	m.ReplyFromMemory(coherent.Msg{
		Type: coherent.MsgDataReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
		Requester: msg.Requester, HasData: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	}, coherent.ServeAny)
}

func (e *STP) grantWrite(m *coherent.Machine, en *stpEntry, msg *coherent.Msg) {
	b := msg.Block
	en.pend = nil
	en.state = coherent.DirDirty
	en.owner = msg.Requester
	en.root = msg.Requester
	// RelHome: the write commit and home-gate release ride a companion
	// event at the delivery instant on the home's own lane, in place of
	// the receiver's handler doing them inline.
	m.ReplyFromMemory(coherent.Msg{
		Type: coherent.MsgWriteReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
		Requester: msg.Requester, HasData: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		RelHome: true,
	}, coherent.ServeNone)
}

// HomeMsg implements coherent.Engine.
func (e *STP) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {
	en := e.entry(msg.Block)
	switch msg.Type {
	case coherent.MsgDone:
		// An adopter placed the requester; the read transaction at the
		// home is finished.
		if en.pend == nil {
			panic("stp: Done without a pending read")
		}
		// Mark the read served only if the requester's outstanding
		// transaction is still the one this pend serialized: ChainData
		// and Done travel independently, so the requester may have
		// completed, silently replaced and issued a fresh read before
		// the Done reaches home, and that read must not be marked.
		m.MarkServed(en.pend.req.Requester, msg.Block, coherent.ServeTxn(en.pend.serial))
		en.pend = nil
		m.ReleaseHome(msg.Block)
	case coherent.MsgFwd:
		// A descent bounced off a torn-down node: re-root the tree over
		// the old root and serve the requester from home.
		if en.pend == nil {
			panic("stp: bounced insert without a pending read")
		}
		p := en.pend
		req := p.req.Requester
		en.pend = nil
		oldRoot := en.root
		b := msg.Block
		en.root = req
		en.state = coherent.DirShared
		var ptrs coherent.Ptrs
		if oldRoot != coherent.NoNode && oldRoot != req {
			ptrs.Add(oldRoot)
		}
		// The reply marks the read served only if it is still the
		// transaction this pend serialized (see stpPending.serial).
		m.ReplyFromMemory(coherent.Msg{
			Type: coherent.MsgDataReply, Src: m.Home(b), Dst: req, Block: b,
			Requester: req, HasData: true, Ptrs: ptrs, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		}, coherent.ServeTxn(p.serial))
	case coherent.MsgInvAck:
		m.CtrAt(msg.Dst).InvAcks++
		p := en.pend
		if p == nil || p.acksLeft <= 0 {
			panic("stp: unexpected InvAck at home")
		}
		p.acksLeft--
		if p.acksLeft == 0 {
			e.grantWrite(m, en, &p.req)
		}
	case coherent.MsgWbData:
		m.CtrAt(msg.Dst).Writebacks++
		m.Store.OwnerValue(msg.Block, msg.Data)
		if en.owner == msg.Src {
			en.owner = coherent.NoNode
			if msg.Write {
				en.state = coherent.DirShared
			} else if en.root == msg.Src {
				en.root = coherent.NoNode
				en.state = coherent.DirUncached
			} else {
				en.state = coherent.DirShared
			}
		}
	default:
		panic("stp: unexpected home message " + msg.Type.String())
	}
}

// CacheMsg implements coherent.Engine.
func (e *STP) CacheMsg(m *coherent.Machine, msg *coherent.Msg) {
	n := msg.Dst
	node := m.Nodes[n]
	switch msg.Type {
	case coherent.MsgDataReply:
		txn := m.Txn(n, msg.Block)
		if txn == nil || txn.Write {
			panic("stp: DataReply without matching read txn")
		}
		meta := newSTPMeta()
		for i, p := range msg.Ptrs.Nodes() {
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
		m.CompleteTxn(txn, cache.Exclusive, txn.Value, newSTPMeta())
		// The home gate is released by the RelHome companion event on
		// the home's own lane (see grantWrite).
	case coherent.MsgChainData:
		txn := m.Txn(n, msg.Block)
		if txn == nil || txn.Write {
			panic("stp: ChainData without matching read txn")
		}
		m.CompleteTxn(txn, cache.Valid, msg.Data, newSTPMeta())
	case coherent.MsgFwd:
		e.onInsert(m, node, msg)
	case coherent.MsgInv:
		e.onInv(m, node, msg)
	case coherent.MsgInvAck:
		e.onCacheAck(m, n, msg)
	case coherent.MsgReplaceInv:
		e.onReplaceInv(m, node, msg)
	case coherent.MsgWbReq:
		panic("stp: WbReq unused by this engine")
	default:
		panic("stp: unexpected cache message " + msg.Type.String())
	}
}

// onInsert routes a descending read request: adopt the requester in a
// free child slot, or forward toward the smaller subtree, or bounce to
// the home if this node's copy is gone.
func (e *STP) onInsert(m *coherent.Machine, node *coherent.Node, msg *coherent.Msg) {
	n := node.ID
	ln := node.Cache.Lookup(msg.Block)
	if ln == nil || ln.State == cache.Invalid {
		// Torn-down node: bounce to the home, which re-roots.
		m.Send(coherent.Msg{
			Type: coherent.MsgFwd, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			Requester: msg.Requester, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
		return
	}
	meta := stpMetaOf(ln)
	if meta == nil {
		meta = newSTPMeta()
		ln.Meta = meta
	}
	if ln.State == cache.Exclusive {
		// A dirty root demotes itself and writes back before sharing.
		ln.State = cache.Valid
		m.Send(coherent.Msg{
			Type: coherent.MsgWbData, Src: n, Dst: m.Home(msg.Block), Block: msg.Block,
			HasData: true, Data: ln.Val, Write: true, ToDir: true,
			Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	}
	for i := 0; i < 2; i++ {
		if meta.children[i] == coherent.NoNode {
			meta.children[i] = msg.Requester
			meta.counts[i] = 1
			m.Send(coherent.Msg{
				Type: coherent.MsgChainData, Src: n, Dst: msg.Requester, Block: msg.Block,
				Requester: msg.Requester, HasData: true, Data: ln.Val,
				Aux: coherent.NoNode, AckTo: coherent.NoNode,
			})
			m.Send(coherent.Msg{
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
	m.Send(coherent.Msg{
		Type: coherent.MsgFwd, Src: n, Dst: meta.children[dir], Block: msg.Block,
		Requester: msg.Requester, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

// DirectoryBits implements coherent.Engine: two home pointers (root and
// owner) per block plus two child pointers and counts per cache line.
func (e *STP) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 {
	n := int64(cfg.Procs)
	logn := cfg.PointerBits()
	return int64(blocksPerNode)*n*2*logn + int64(cfg.CacheLines())*n*2*2*logn
}

// Verification hooks for the model checker (internal/check).

// AppendCanon implements coherent.CanonAppender: "ch[<children>]
// cnt[<counts>]", NoNode slots included.
//
//dirccvet:hotpath
func (meta *stpMeta) AppendCanon(b []byte) []byte {
	if meta == nil {
		return append(b, "<nil>"...)
	}
	b = append(b, "ch"...)
	b = coherent.AppendNodes(b, meta.children[:])
	b = append(b, " cnt["...)
	for i, c := range meta.counts {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return append(b, ']')
}

// CanonState implements coherent.ProtocolState: directory entries, then
// the forest's aggregations and tombstones.
func (e *STP) CanonState(w io.Writer) {
	w.Write(e.appendCanon(coherent.CanonBuffer(w)))
}

//dirccvet:hotpath
func (e *STP) appendCanon(b []byte) []byte {
	for _, blk := range e.m.DirBlocks() {
		en, _ := e.m.Dir(blk).(*stpEntry)
		if en == nil {
			continue
		}
		if en.state == coherent.DirUncached && en.root == coherent.NoNode && en.owner == coherent.NoNode && en.pend == nil {
			continue
		}
		b = en.appendCanon(coherent.AppendDir(b, blk))
		b = append(b, '\n')
	}
	return e.appendCanonWaves(b)
}

// appendCanon appends the entry's text: "<state> root<n> owner<n>",
// then the pending home transaction if there is one.
//
//dirccvet:hotpath
func (en *stpEntry) appendCanon(b []byte) []byte {
	b = append(b, en.state.String()...)
	b = append(b, " root"...)
	b = strconv.AppendInt(b, int64(en.root), 10)
	b = append(b, " owner"...)
	b = strconv.AppendInt(b, int64(en.owner), 10)
	if p := en.pend; p != nil {
		b = append(b, " pend{"...)
		b = p.req.AppendCanon(b)
		b = append(b, " acks"...)
		b = strconv.AppendInt(b, int64(p.acksLeft), 10)
		b = append(b, '}')
	}
	return b
}

// DescribeBlock implements coherent.BlockDumper: the entry's canonical
// text.
func (e *STP) DescribeBlock(b coherent.BlockID) string {
	en, _ := e.m.Dir(b).(*stpEntry)
	if en == nil {
		return "uncached (no entry)"
	}
	return string(en.appendCanon(nil))
}

// CoverageRoots implements coherent.CoverageEnumerator.
func (e *STP) CoverageRoots(m *coherent.Machine, b coherent.BlockID) []coherent.NodeID {
	en, _ := m.Dir(b).(*stpEntry)
	if en == nil {
		return nil
	}
	roots := e.roots[:0]
	if en.root != coherent.NoNode {
		roots = append(roots, en.root)
	}
	if en.owner != coherent.NoNode && en.owner != en.root {
		roots = append(roots, en.owner)
	}
	e.roots = roots
	return roots
}

// CheckShape implements coherent.ShapeChecker: STP keeps at most one
// root per block and at most two live children per copy, with live
// child edges forming no cycle until the first teardown (see
// CheckForestShape for why teardown relaxes acyclicity).
func (e *STP) CheckShape(m *coherent.Machine, b coherent.BlockID) error {
	en, _ := m.Dir(b).(*stpEntry)
	if en == nil {
		return nil
	}
	roots := e.roots[:0]
	if en.root != coherent.NoNode {
		roots = append(roots, en.root)
	}
	e.roots = roots
	return e.checkShape(m, b, roots, 1, 2)
}
