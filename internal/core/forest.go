package core

import (
	"fmt"
	"io"
	"sort"

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
// Prepare), and the per-cache aggregation/victim-buffer records are
// slices indexed by the owning node, so every handler touches only its
// own slot.
type forest struct {
	// m is the bound machine (coherent.Preparer); directory entries
	// are reached through m.Dir/m.SetDir so they are home-resident.
	m *coherent.Machine
	// aggs[n] tracks node n's bottom-up ack aggregations, keyed by
	// block. Only node n's lane reads or writes aggs[n].
	aggs []map[coherent.BlockID]*agg
	// tombs[n] retains the child pointers of node n's lines that died
	// without acknowledged coverage (replacement, Replace_INV) — a
	// small victim buffer. An ack-bearing Inv reaching such a dead node
	// routes down the tombstone so a write wave racing an in-flight
	// teardown still covers (and waits for) every copy below; per-pair
	// FIFO delivery guarantees the teardown precedes the wave on each
	// edge. This closes a sequential-consistency hole the paper's
	// silent replacement scheme leaves open (see DESIGN.md §4.2).
	tombs []map[coherent.BlockID][]coherent.NodeID
	// torn is verification-only ghost state: blocks that have ever had
	// a replacement teardown at node n, where dangling child pointers
	// make strict acyclicity inapplicable (see CheckForestShape; the
	// engines' CheckShape reads the union over nodes at quiesce). It
	// never influences protocol behavior.
	torn []map[coherent.BlockID]bool
}

// Prepare implements coherent.Preparer: directory entries live in the
// machine's per-home dir storage and the per-cache records in slices
// indexed by node, which is what makes the engine's state lane-local
// under the sharded kernel. A node's maps are allocated on its first
// write; reads and deletes on a nil map are safe, and most nodes of a
// model-checker replay never write.
func (f *forest) Prepare(m *coherent.Machine) {
	f.m = m
	f.aggs = make([]map[coherent.BlockID]*agg, m.Cfg.Procs)
	f.tombs = make([]map[coherent.BlockID][]coherent.NodeID, m.Cfg.Procs)
	f.torn = make([]map[coherent.BlockID]bool, m.Cfg.Procs)
}

// newAgg starts node n's aggregation record for block b.
func (f *forest) newAgg(n coherent.NodeID, b coherent.BlockID) *agg {
	if f.aggs[n] == nil {
		f.aggs[n] = make(map[coherent.BlockID]*agg)
	}
	a := &agg{}
	f.aggs[n][b] = a
	return a
}

// markTorn records that node n has had a replacement teardown of b.
func (f *forest) markTorn(n coherent.NodeID, b coherent.BlockID) {
	if f.torn[n] == nil {
		f.torn[n] = make(map[coherent.BlockID]bool)
	}
	f.torn[n][b] = true
}

// childrenOf returns a line's child pointers in either engine's format:
// Dir_iTree_k's treeMeta slice, or the occupied slots of STP's stpMeta.
func childrenOf(ln *cache.Line) []coherent.NodeID {
	if meta, ok := ln.Meta.(*treeMeta); ok && meta != nil {
		return meta.children
	}
	meta := stpMetaOf(ln)
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

// onInv handles one invalidation (or update) at a cache: invalidate the
// local copy if present, fan out to children and victim-buffer
// tombstones, and aggregate acknowledgments toward msg.AckTo.
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
	a := f.aggs[n][b]
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
	var fanout []coherent.NodeID
	if ln := node.Cache.Lookup(msg.Block); ln != nil && ln.State != cache.Invalid {
		fanout = append(fanout, childrenOf(ln)...)
		if update {
			ln.Val = msg.Data
		} else {
			m.Invalidate(n, msg.Block)
		}
	}
	if t, ok := f.tombs[n][b]; ok {
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
			delete(f.tombs[n], b)
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
	f.maybeFinishAgg(m, aggKey{n: n, b: b}, a)
}

// onCacheAck handles a child's or sibling's acknowledgment arriving at
// an aggregating cache. It may precede the node's own Inv (sibling acks
// travel a different path), in which case it is banked.
func (f *forest) onCacheAck(m *coherent.Machine, n coherent.NodeID, msg *coherent.Msg) {
	m.CtrAt(n).InvAcks++
	a := f.aggs[n][msg.Block]
	if a == nil {
		a = f.newAgg(n, msg.Block)
	}
	a.left--
	f.maybeFinishAgg(m, aggKey{n: n, b: msg.Block}, a)
}

func (f *forest) maybeFinishAgg(m *coherent.Machine, key aggKey, a *agg) {
	if !a.armed || a.left != 0 {
		return
	}
	delete(f.aggs[key.n], key.b)
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
}

// sendAck acknowledges msg immediately (dangling-edge case).
func (f *forest) sendAck(m *coherent.Machine, n coherent.NodeID, msg *coherent.Msg) {
	m.Send(coherent.Msg{
		Type: coherent.MsgInvAck, Src: n, Dst: msg.AckTo, Block: msg.Block,
		Requester: msg.Requester, ToDir: msg.AckDir, Aux: coherent.NoNode, AckTo: coherent.NoNode,
	})
}

// onReplaceInv continues a teardown at a cache: a live copy is
// invalidated and the Replace_INV passed on to its children, which stay
// in the victim buffer; a copy already gone means a dangling edge.
func (f *forest) onReplaceInv(m *coherent.Machine, node *coherent.Node, msg *coherent.Msg) {
	n := node.ID
	f.markTorn(n, msg.Block)
	ln := node.Cache.Lookup(msg.Block)
	if ln == nil || ln.State == cache.Invalid {
		return // dangling edge; subtree already gone
	}
	children := childrenOf(ln)
	m.Invalidate(n, msg.Block)
	f.mergeTombs(n, msg.Block, children)
	f.sendReplaceInv(m, n, msg.Block, children)
}

// OnEvict implements coherent.Engine: a valid line's subtree is torn
// down with Replace_INV (no acks, no home notification); an exclusive
// line writes back. The child pointers stay in the victim buffer until
// the next install or invalidation sweep (see forest.tombs).
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
}

// mergeTombs unions children into node n's victim buffer for block b;
// pointers from different cache tenures may both have teardowns in
// flight.
func (f *forest) mergeTombs(n coherent.NodeID, b coherent.BlockID, children []coherent.NodeID) {
	if len(children) == 0 {
		return
	}
	cur := f.tombs[n][b]
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
	if f.tombs[n] == nil {
		f.tombs[n] = make(map[coherent.BlockID][]coherent.NodeID)
	}
	f.tombs[n][b] = cur
}

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

// canonWaves writes the in-progress ack aggregations and victim-buffer
// tombstones, the cache-side half of an engine's CanonState. The torn
// ghost flag is deliberately excluded: it only relaxes a check, and any
// state reachable with a cycle has torn set on every path that reaches
// it.
func (f *forest) canonWaves(w io.Writer) {
	for _, k := range sortedKeys(f.aggs) {
		a := f.aggs[k.n][k.b]
		fmt.Fprintf(w, "agg n%d b%d armed%v left%d to%d dir%v", k.n, k.b, a.armed, a.left, a.to, a.toDir)
		for _, d := range a.extra {
			fmt.Fprintf(w, " +to%d dir%v", d.to, d.toDir)
		}
		fmt.Fprintln(w)
	}
	for _, k := range sortedKeys(f.tombs) {
		fmt.Fprintf(w, "tomb n%d b%d -> %v\n", k.n, k.b, f.tombs[k.n][k.b])
	}
}

// CoverageEdges implements coherent.CoverageEnumerator: a live copy's
// child pointers plus the victim-buffer tombstones left below node n
// by replaced copies.
func (f *forest) CoverageEdges(m *coherent.Machine, b coherent.BlockID, n coherent.NodeID) []coherent.NodeID {
	var out []coherent.NodeID
	if ln := m.Nodes[n].Cache.Lookup(b); ln != nil && ln.State != cache.Invalid {
		out = append(out, childrenOf(ln)...)
	}
	out = append(out, f.tombs[n][b]...)
	return out
}

// checkShape runs CheckForestShape over the live child edges of block
// b's copies, strictly acyclic until the block's first teardown.
func (f *forest) checkShape(m *coherent.Machine, b coherent.BlockID, roots []coherent.NodeID, maxRoots, arity int) error {
	// torn is per-node ghost state written on the tearing node's lane;
	// this quiesced check reads the union.
	torn := false
	for _, tm := range f.torn {
		if tm[b] {
			torn = true
			break
		}
	}
	return CheckForestShape(roots, maxRoots, arity, !torn, func(n coherent.NodeID) []coherent.NodeID {
		ln := m.Nodes[n].Cache.Lookup(b)
		if ln == nil || ln.State == cache.Invalid {
			return nil
		}
		return childrenOf(ln)
	})
}

// sortedKeys lists the (node, block) keys of per-node state in block
// then node order.
func sortedKeys[V any](perNode []map[coherent.BlockID]V) []aggKey {
	var out []aggKey
	for n, mm := range perNode {
		for b := range mm {
			out = append(out, aggKey{n: coherent.NodeID(n), b: b})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].b != out[j].b {
			return out[i].b < out[j].b
		}
		return out[i].n < out[j].n
	})
	return out
}
