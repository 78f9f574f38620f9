package core

import (
	"strconv"

	"dircc/internal/cache"
	"dircc/internal/coherent"
)

// aggKey identifies one node's position in one invalidation wave.
type aggKey struct {
	n coherent.NodeID
	b coherent.BlockID
}

// agg tracks bottom-up acknowledgment aggregation at a cache. Sibling
// acks may arrive before the node's own Inv (the paths differ), so
// left can go negative while !armed.
type agg struct {
	armed bool
	left  int
	to    coherent.NodeID
	toDir bool
	// req is the writer whose wave this aggregation belongs to, carried
	// onto the aggregated ack for latency attribution (not on the wire:
	// Msg.Bytes ignores Requester).
	req coherent.NodeID
	// extra holds additional acknowledgment obligations folded into this
	// aggregation: when the home's SibAck-bearing root Inv lands on an
	// aggregation another in-edge of the same wave already armed, its
	// destination waits here until the whole aggregation drains (see
	// onInv).
	extra []ackDest
	// next links the record into its node's free list while no wave
	// uses it (see forest.newAgg).
	next *agg
}

// ackDest is one folded acknowledgment obligation: where the aggregated
// ack must go and on whose behalf.
type ackDest struct {
	to    coherent.NodeID
	toDir bool
	req   coherent.NodeID
}

// forest is the cache side both tree engines embed: invalidation waves
// that fan down the sharing trees and aggregate acknowledgments bottom-
// up, and replacement teardown with unacknowledged Replace_INVs. All
// mutable state is lane-partitioned for the sharded kernel: directory
// entries live in the machine's per-home dir storage (bound at
// Prepare), and the per-cache state sits in one record per node,
// indexed by the owning node, so every handler touches only its own.
type forest struct {
	// m is the bound machine (coherent.Preparer); directory entries
	// are reached through m.Dir/m.SetDir so they are home-resident.
	m *coherent.Machine
	// nodes[n] is node n's cache-side state. Only node n's lane touches
	// it.
	nodes []forestNode
	// keys, roots and walk are the model-checker hooks' scratch, reused
	// from state to state: the sorted per-node keys of appendCanonWaves, the
	// slice CoverageRoots returns, and CheckShape's depth-first walk.
	keys  []coherent.NodeBlock
	roots []coherent.NodeID
	walk  shapeWalk
}

// forestNode is one node's entry in forest.nodes. Its maps are
// allocated on the node's first write: reads and deletes on a nil map
// are safe, and most nodes of a model-checker replay never write.
type forestNode struct {
	// aggs tracks the node's bottom-up ack aggregations, keyed by block.
	aggs map[coherent.BlockID]*agg
	// tombs retains the child pointers of the node's lines that died
	// without acknowledged coverage (replacement, Replace_INV) — a
	// small victim buffer. An ack-bearing Inv reaching such a dead node
	// routes down the tombstone so a write wave racing an in-flight
	// teardown still covers (and waits for) every copy below; per-pair
	// FIFO delivery guarantees the teardown precedes the wave on each
	// edge. This closes a sequential-consistency hole the paper's
	// silent replacement scheme leaves open (see DESIGN.md §4.2).
	tombs map[coherent.BlockID][]coherent.NodeID
	// torn is verification-only ghost state: blocks that have ever had
	// a replacement teardown at the node, where dangling child pointers
	// make strict acyclicity inapplicable (see CheckForestShape; the
	// engines' CheckShape reads the union over nodes at quiesce). It
	// never influences protocol behavior.
	torn map[coherent.BlockID]bool
	// freeAggs, metas and pends are the node's free lists of aggregation
	// records, Dir_iTree_k line metadata and, as a home, Dir_iTree_k
	// pending records, and fan its reusable buffer for an invalidation's
	// fan-out, so a transaction allocates nothing once they are warm.
	freeAggs *agg
	metas    *treeMeta
	pends    *pending
	fan      []coherent.NodeID
	// edges is the slice CoverageEdges returns for the node, reused by
	// its next call for the same node.
	edges []coherent.NodeID
}

// Prepare implements coherent.Preparer: directory entries live in the
// machine's per-home dir storage and the per-cache state in one record
// per node, which is what makes the engine's state lane-local under the
// sharded kernel. The records are allocated here, all at once, so no
// lane ever allocates a shared one.
func (f *forest) Prepare(m *coherent.Machine) {
	f.m = m
	f.nodes = make([]forestNode, m.Cfg.Procs)
}

// newAgg starts node n's aggregation record for block b, taking it from
// n's free list. It stays out of line so that allocguard attributes its
// allocations, on an empty list or a node's first wave, here rather than
// to its callers.
//
//dirccvet:hotpath
//go:noinline
func (f *forest) newAgg(n coherent.NodeID, b coherent.BlockID) *agg {
	nd := &f.nodes[n]
	if nd.aggs == nil {
		//dirccvet:allow allocguard a node builds its aggregation map once, on its first wave
		nd.aggs = make(map[coherent.BlockID]*agg)
	}
	a := nd.freeAggs
	if a == nil {
		//dirccvet:allow allocguard a node allocates an aggregation only while more of its waves are open than ever before
		a = new(agg)
	} else {
		nd.freeAggs = a.next
		*a = agg{extra: a.extra[:0]}
	}
	nd.aggs[b] = a
	return a
}

// metaChunk is how many line metadata records a node allocates at once
// when its free list runs dry.
const metaChunk = 64

// newMeta takes Dir_iTree_k line metadata from node n's free list, for
// a line a reply is about to install; the caller sets its children.
//
//dirccvet:hotpath
func (f *forest) newMeta(n coherent.NodeID) *treeMeta {
	nd := &f.nodes[n]
	if nd.metas == nil {
		f.growMetas(n)
	}
	meta := nd.metas
	nd.metas, meta.next = meta.next, nil
	return meta
}

// growMetas puts a fresh chunk of line metadata records on node n's
// free list. It stays out of line so that allocguard attributes the
// allocation here rather than to newMeta.
//
//dirccvet:hotpath
//go:noinline
func (f *forest) growMetas(n coherent.NodeID) {
	//dirccvet:allow allocguard one chunk per 64 records, allocated only while more of a node's lines hold metadata than ever before
	chunk := make([]treeMeta, metaChunk)
	nd := &f.nodes[n]
	for i := range chunk {
		chunk[i].next, nd.metas = nd.metas, &chunk[i]
	}
}

// freeMeta returns meta, the metadata node n's line held until it was
// invalidated, evicted or reinstalled, to n's free list when it is
// Dir_iTree_k's. The line's child pointers go with it: callers are done
// with them.
//
//dirccvet:hotpath
func (f *forest) freeMeta(n coherent.NodeID, meta any) {
	if tm, ok := meta.(*treeMeta); ok && tm != nil {
		nd := &f.nodes[n]
		tm.next, nd.metas = nd.metas, tm
	}
}

// markTorn records that node n has had a replacement teardown of b. It
// stays out of line so that allocguard attributes the map it builds
// here rather than to its callers.
//
//dirccvet:hotpath
//go:noinline
func (f *forest) markTorn(n coherent.NodeID, b coherent.BlockID) {
	nd := &f.nodes[n]
	if nd.torn == nil {
		//dirccvet:allow allocguard a node builds its map once, on its first teardown
		nd.torn = make(map[coherent.BlockID]bool)
	}
	nd.torn[b] = true
}

// childrenOf returns a line's child pointers in either engine's format:
// Dir_iTree_k's treeMeta slice, or the occupied slots of STP's stpMeta.
func childrenOf(ln *cache.Line) []coherent.NodeID {
	if meta, ok := ln.Meta.(*treeMeta); ok && meta != nil {
		return meta.children
	}
	return appendChildren(nil, ln)
}

// appendChildren appends a line's child pointers to dst, as childrenOf
// returns them.
func appendChildren(dst []coherent.NodeID, ln *cache.Line) []coherent.NodeID {
	if meta, ok := ln.Meta.(*treeMeta); ok && meta != nil {
		return append(dst, meta.children...)
	}
	if meta := stpMetaOf(ln); meta != nil {
		for _, c := range meta.children {
			if c != coherent.NoNode {
				dst = append(dst, c)
			}
		}
	}
	return dst
}

// onInv handles one invalidation (or update) at a cache: invalidate the
// local copy if present, fan out to children and victim-buffer
// tombstones, and aggregate acknowledgments toward msg.AckTo.
//
//dirccvet:hotpath
func (f *forest) onInv(m *coherent.Machine, node *coherent.Node, msg *coherent.Msg) {
	n := node.ID
	if txn := m.Txn(n, msg.Block); txn != nil && !txn.Write && txn.Served {
		// Our data reply — which may carry children we must forward
		// this invalidation to — is in flight. Defer until it installs;
		// the wave cannot deadlock because the reply does not depend on
		// the home gate the writer holds.
		m.DeferToTxn(n, msg)
		return
	}
	b := msg.Block
	nd := &f.nodes[n]
	a := nd.aggs[b]
	if a != nil && a.armed {
		if msg.SibAck {
			// The home's root Inv landed on an aggregation another
			// in-edge of the same wave already armed. Its odd sibling's
			// ack is routed here and cannot be told apart from a child
			// ack, so an independent ack would both fire the home's ack
			// before the sibling reported and leave the sibling's ack
			// banked as a stray that poisons the next wave. Fold the
			// obligation in: expect one more ack, and acknowledge this
			// destination too when the aggregation drains.
			a.extra = append(a.extra, ackDest{to: msg.AckTo, toDir: msg.AckDir, req: msg.Requester})
			a.left++
			return
		}
		// A second Inv in the same wave (dangling edge): acknowledge it
		// independently without disturbing the aggregation.
		f.sendAck(m, n, msg)
		return
	}
	if a == nil {
		a = f.newAgg(n, b)
	}
	a.armed = true
	a.to = msg.AckTo
	a.toDir = msg.AckDir
	a.req = msg.Requester
	if msg.SibAck {
		a.left++
	}
	update := msg.Type == coherent.MsgUpdate
	fanout := nd.fan[:0]
	if ln := node.Cache.Lookup(msg.Block); ln != nil && ln.State != cache.Invalid {
		fanout = append(fanout, childrenOf(ln)...)
		if update {
			ln.Val = msg.Data
		} else {
			meta := ln.Meta
			m.Invalidate(n, msg.Block)
			f.freeMeta(n, meta)
		}
	}
	if t, ok := nd.tombs[b]; ok {
		// A teardown from this node's previous tenure may still be in
		// flight below: route the wave down the victim-buffer pointers
		// too, so it covers (and waits for) every copy the Replace_INV
		// has not yet reached.
		for _, c := range t {
			dup := false
			for _, x := range fanout {
				if x == c {
					dup = true
					break
				}
			}
			if !dup {
				fanout = append(fanout, c)
			}
		}
		if !update {
			// Update waves must keep routing through the victim buffer
			// on every write: torn-down positions stay reachable from
			// the persistent sharing trees.
			delete(nd.tombs, b)
		}
	}
	for _, c := range fanout {
		a.left++
		m.CtrAt(n).Invalidations++
		m.Send(coherent.Msg{
			Type: msg.Type, Src: n, Dst: c, Block: msg.Block,
			Requester: msg.Requester, HasData: update, Data: msg.Data,
			AckTo: n, Aux: coherent.NoNode,
		})
	}
	nd.fan = fanout
	f.maybeFinishAgg(m, aggKey{n: n, b: b}, a)
}

// onCacheAck handles a child's or sibling's acknowledgment arriving at
// an aggregating cache. It may precede the node's own Inv (sibling acks
// travel a different path), in which case it is banked.
//
//dirccvet:hotpath
func (f *forest) onCacheAck(m *coherent.Machine, n coherent.NodeID, msg *coherent.Msg) {
	m.CtrAt(n).InvAcks++
	a := f.nodes[n].aggs[msg.Block]
	if a == nil {
		a = f.newAgg(n, msg.Block)
	}
	a.left--
	f.maybeFinishAgg(m, aggKey{n: n, b: msg.Block}, a)
}

// maybeFinishAgg sends a's aggregated acknowledgments once its own Inv
// has armed it and every ack it waits for has arrived, and returns the
// record to its node's free list.
//
//dirccvet:hotpath
func (f *forest) maybeFinishAgg(m *coherent.Machine, key aggKey, a *agg) {
	if !a.armed || a.left != 0 {
		return
	}
	nd := &f.nodes[key.n]
	delete(nd.aggs, key.b)
	m.Send(coherent.Msg{
		Type: coherent.MsgInvAck, Src: key.n, Dst: a.to, Block: key.b,
		Requester: a.req, ToDir: a.toDir, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
	for _, d := range a.extra {
		m.Send(coherent.Msg{
			Type: coherent.MsgInvAck, Src: key.n, Dst: d.to, Block: key.b,
			Requester: d.req, ToDir: d.toDir, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	}
	a.next, nd.freeAggs = nd.freeAggs, a
}

// sendAck acknowledges msg immediately (dangling-edge case).
//
//dirccvet:hotpath
func (f *forest) sendAck(m *coherent.Machine, n coherent.NodeID, msg *coherent.Msg) {
	m.Send(coherent.Msg{
		Type: coherent.MsgInvAck, Src: n, Dst: msg.AckTo, Block: msg.Block,
		Requester: msg.Requester, ToDir: msg.AckDir, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

// onReplaceInv continues a teardown at a cache: a live copy is
// invalidated and the Replace_INV passed on to its children, which stay
// in the victim buffer; a copy already gone means a dangling edge.
//
//dirccvet:hotpath
func (f *forest) onReplaceInv(m *coherent.Machine, node *coherent.Node, msg *coherent.Msg) {
	n := node.ID
	f.markTorn(n, msg.Block)
	ln := node.Cache.Lookup(msg.Block)
	if ln == nil || ln.State == cache.Invalid {
		return // dangling edge; subtree already gone
	}
	meta, children := ln.Meta, childrenOf(ln)
	m.Invalidate(n, msg.Block)
	f.mergeTombs(n, msg.Block, children)
	f.sendReplaceInv(m, n, msg.Block, children)
	f.freeMeta(n, meta)
}

// OnEvict implements coherent.Engine: a valid line's subtree is torn
// down with Replace_INV (no acks, no home notification); an exclusive
// line writes back. The child pointers stay in the victim buffer until
// the next install or invalidation sweep (see forestNode.tombs).
//
//dirccvet:hotpath
func (f *forest) OnEvict(m *coherent.Machine, n coherent.NodeID, ln *cache.Line) {
	switch ln.State {
	case cache.Valid:
		f.markTorn(n, ln.Block)
		children := childrenOf(ln)
		f.mergeTombs(n, ln.Block, children)
		f.sendReplaceInv(m, n, ln.Block, children)
	case cache.Exclusive:
		m.Send(coherent.Msg{
			Type: coherent.MsgWbData, Src: n, Dst: m.Home(ln.Block), Block: ln.Block,
			HasData: true, Data: ln.Val, ToDir: true, Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	}
	// The machine clears the line when OnEvict returns.
	f.freeMeta(n, ln.Meta)
}

// mergeTombs unions children into node n's victim buffer for block b;
// pointers from different cache tenures may both have teardowns in
// flight. It stays out of line so that allocguard attributes the map it
// builds here rather than to its callers.
//
//dirccvet:hotpath
//go:noinline
func (f *forest) mergeTombs(n coherent.NodeID, b coherent.BlockID, children []coherent.NodeID) {
	if len(children) == 0 {
		return
	}
	nd := &f.nodes[n]
	cur := nd.tombs[b]
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
	if nd.tombs == nil {
		//dirccvet:allow allocguard a node builds its map once, on its first teardown
		nd.tombs = make(map[coherent.BlockID][]coherent.NodeID)
	}
	nd.tombs[b] = cur
}

//dirccvet:hotpath
func (f *forest) sendReplaceInv(m *coherent.Machine, n coherent.NodeID, b coherent.BlockID, children []coherent.NodeID) {
	for _, c := range children {
		m.CtrAt(n).ReplaceInvs++
		m.Send(coherent.Msg{
			Type: coherent.MsgReplaceInv, Src: n, Dst: c, Block: b,
			Aux: coherent.NoNode, AckTo: coherent.NoNode,
		})
	}
}

// Verification hooks for the model checker (internal/check).

// appendCanonWaves appends the in-progress ack aggregations and
// victim-buffer tombstones, the cache-side half of an engine's
// CanonState. The torn ghost flag is deliberately excluded: it only
// relaxes a check, and any state reachable with a cycle has torn set on
// every path that reaches it.
//
//dirccvet:hotpath
func (f *forest) appendCanonWaves(b []byte) []byte {
	f.keys = coherent.AppendSortedKeys(f.keys[:0], len(f.nodes), func(n int) map[coherent.BlockID]*agg { return f.nodes[n].aggs })
	for _, k := range f.keys {
		a := f.nodes[k.N].aggs[k.B]
		b = coherent.AppendRecord(b, "agg", k)
		b = append(b, " armed"...)
		b = strconv.AppendBool(b, a.armed)
		b = append(b, " left"...)
		b = strconv.AppendInt(b, int64(a.left), 10)
		b = append(b, " to"...)
		b = strconv.AppendInt(b, int64(a.to), 10)
		b = append(b, " dir"...)
		b = strconv.AppendBool(b, a.toDir)
		for _, d := range a.extra {
			b = append(b, " +to"...)
			b = strconv.AppendInt(b, int64(d.to), 10)
			b = append(b, " dir"...)
			b = strconv.AppendBool(b, d.toDir)
		}
		b = append(b, '\n')
	}
	f.keys = coherent.AppendSortedKeys(f.keys[:0], len(f.nodes), func(n int) map[coherent.BlockID][]coherent.NodeID { return f.nodes[n].tombs })
	for _, k := range f.keys {
		b = coherent.AppendRecord(b, "tomb", k)
		b = append(b, " -> "...)
		b = coherent.AppendNodes(b, f.nodes[k.N].tombs[k.B])
		b = append(b, '\n')
	}
	return b
}

// CoverageEdges implements coherent.CoverageEnumerator: a live copy's
// child pointers plus the victim-buffer tombstones left below node n
// by replaced copies. The slice is node n's and stays valid until the
// next call for n.
func (f *forest) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	nd := &f.nodes[n]
	out := nd.edges[:0]
	if ln := m.Nodes[n].Cache.Lookup(b); ln != nil && ln.State != cache.Invalid {
		out = appendChildren(out, ln)
	}
	out = append(out, nd.tombs[b]...)
	nd.edges = out
	return out
}

// checkShape runs CheckForestShape over the live child edges of block
// b's copies, strictly acyclic until the block's first teardown.
func (f *forest) checkShape(m *coherent.Machine, b coherent.BlockID, roots []coherent.NodeID, maxRoots, arity int) error {
	// torn is per-node ghost state written on the tearing node's lane;
	// this quiesced check reads the union.
	torn := false
	for i := range f.nodes {
		if f.nodes[i].torn[b] {
			torn = true
			break
		}
	}
	return f.walk.check(roots, maxRoots, arity, !torn, func(n coherent.NodeID) []coherent.NodeID {
		ln := m.Nodes[n].Cache.Lookup(b)
		if ln == nil || ln.State == cache.Invalid {
			return nil
		}
		nd := &f.nodes[n]
		nd.edges = appendChildren(nd.edges[:0], ln)
		return nd.edges
	})
}
