package check

import (
	"fmt"

	"dircc/internal/cache"
	"dircc/internal/coherent"
)

// This file is the machine-level invariant core, shared between the
// exhaustive model checker (which samples it on every drained state of
// every interleaving) and the randomized fuzzer (internal/fuzz, which
// samples it at workload quiescence points where the BFS cannot go).

// Invariants asserts everything that must hold in every drained state
// of m, for the first `blocks` blocks of the shared address space:
//
//   - the runtime monitor found no data-coherence violation,
//   - SWMR: an exclusive copy excludes every other copy,
//   - an exclusive copy agrees with the authoritative memory image
//     (modulo one write in flight past its serialization point),
//   - directory coverage: every stable copy is reachable from the
//     directory's records (closure of CoverageRoots under
//     CoverageEdges, seeded with everything in-flight),
//   - structural well-formedness, when the engine has any
//     (coherent.ShapeChecker).
//
// inflight holds the undelivered messages, if the caller owns transport
// (the model checker's send hook); pass nil at a true quiescence point.
func Invariants(m *coherent.Machine, blocks int, inflight []*coherent.Msg) error {
	if errs := m.Mon.Errors(); len(errs) > 0 {
		return fmt.Errorf("monitor: %s", errs[0])
	}
	ce, _ := m.Protocol().(coherent.CoverageEnumerator)
	sc, _ := m.Protocol().(coherent.ShapeChecker)
	for b := coherent.BlockID(0); int(b) < blocks; b++ {
		var holders, exclusive []coherent.NodeID
		for n := range m.Nodes {
			ln := m.Nodes[n].Cache.Lookup(b)
			if ln == nil || ln.State == cache.Invalid {
				continue
			}
			holders = append(holders, coherent.NodeID(n))
			if ln.State == cache.Exclusive {
				exclusive = append(exclusive, coherent.NodeID(n))
				cur := m.Store.Value(b)
				old, inFlight := m.Store.WriteInFlight(b)
				if ln.Val != cur && !(inFlight && ln.Val == old) {
					return fmt.Errorf("value: node %d holds block %d exclusive with %d, memory image is %d", n, b, ln.Val, cur)
				}
			}
		}
		if len(exclusive) > 1 {
			return fmt.Errorf("swmr: block %d has %d exclusive owners %v", b, len(exclusive), exclusive)
		}
		if len(exclusive) == 1 && len(holders) > 1 {
			return fmt.Errorf("swmr: block %d owned exclusively by node %d alongside copies at %v", b, exclusive[0], holders)
		}
		if sc != nil {
			if err := sc.CheckShape(m, b); err != nil {
				return err
			}
		}
		if ce != nil {
			if err := coverage(m, ce, b, holders, inflight); err != nil {
				return err
			}
		}
	}
	return nil
}

// coverage requires every stable copy of b to be reachable from the
// directory's knowledge. The start set is the directory's own records
// (CoverageRoots) plus every node referenced by in-flight state —
// undelivered messages, deferred messages, outstanding transactions —
// because a copy being handed off or torn down is legitimately covered
// by the message that will reach it. The set is closed under
// CoverageEdges (tree children, list successors, tombstones). A stable
// copy outside the closure is a lost copy: no future write wave can
// invalidate it.
func coverage(m *coherent.Machine, ce coherent.CoverageEnumerator, b coherent.BlockID, holders []coherent.NodeID, inflight []*coherent.Msg) error {
	covered := make(map[coherent.NodeID]bool)
	var frontier []coherent.NodeID
	add := func(n coherent.NodeID) {
		if n < 0 || int(n) >= len(m.Nodes) || covered[n] {
			return
		}
		covered[n] = true
		frontier = append(frontier, n)
	}
	addMsg := func(msg *coherent.Msg) {
		if msg.Block != b {
			return
		}
		add(msg.Src)
		add(msg.Dst)
		add(msg.Requester)
		add(msg.Aux)
		if !msg.AckDir {
			add(msg.AckTo)
		}
		for _, p := range msg.Ptrs.Nodes() {
			add(p)
		}
	}
	for _, n := range ce.CoverageRoots(m, b) {
		add(n)
	}
	for _, msg := range inflight {
		addMsg(msg)
	}
	for n := range m.Nodes {
		if txn := m.Txn(coherent.NodeID(n), b); txn != nil {
			add(coherent.NodeID(n))
			for _, d := range txn.Deferred {
				addMsg(d)
			}
		}
	}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, c := range ce.CoverageEdges(m, b, n) {
			add(c)
		}
	}
	for _, h := range holders {
		if !covered[h] {
			return fmt.Errorf("coverage: node %d holds a stable copy of block %d the directory cannot reach", h, b)
		}
	}
	return nil
}

// Quiescent asserts the full quiescence-point contract on a machine
// whose event queue has drained with nothing in flight: the drained-
// state invariants above, no outstanding transaction, no held home
// gate, the monitor's end-of-run checks, and value freshness — once
// every write has performed and nothing is in transit, every surviving
// copy (Valid or Exclusive) must carry the block's authoritative value;
// a stale survivor is a copy an invalidation wave missed. The fuzzer
// samples this between workload phases, where the differential oracle
// needs exactly these guarantees for cross-engine comparability.
func Quiescent(m *coherent.Machine, blocks int) error {
	for n := range m.Nodes {
		if m.Outstanding(coherent.NodeID(n)) > 0 {
			return fmt.Errorf("deadlock: node %d has an outstanding transaction with nothing in flight", n)
		}
	}
	for b := coherent.BlockID(0); int(b) < blocks; b++ {
		if m.HomeGateBusy(b) {
			return fmt.Errorf("deadlock: block %d home gate held with nothing in flight", b)
		}
	}
	if err := Invariants(m, blocks, nil); err != nil {
		return err
	}
	for b := coherent.BlockID(0); int(b) < blocks; b++ {
		cur := m.Store.Value(b)
		for n := range m.Nodes {
			ln := m.Nodes[n].Cache.Lookup(b)
			if ln != nil && ln.State != cache.Invalid && ln.Val != cur {
				return fmt.Errorf("stale: node %d holds block %d with %d at quiescence, memory image is %d", n, b, ln.Val, cur)
			}
		}
	}
	m.Mon.OnQuiesce()
	if errs := m.Mon.Errors(); len(errs) > 0 {
		return fmt.Errorf("quiesce: %s", errs[0])
	}
	return nil
}
