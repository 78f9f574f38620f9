package check

import (
	"fmt"
	mathbits "math/bits"

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
	var iv invariants
	return iv.check(m, blocks, inflight)
}

// invariants is the scratch Invariants works in. The model checker
// keeps one per run, so that checking a state allocates nothing once
// its sets have grown to the machine's size.
type invariants struct {
	// procs is the machine's node count, the bound of every set.
	procs int
	// holders and exclusive are the nodes holding a stable copy, and an
	// exclusive one, of the block being checked.
	holders, exclusive nodeSet
	// covered and frontier are the coverage walk's visited set and
	// stack.
	covered  nodeSet
	frontier []coherent.NodeID
}

// check is Invariants on iv's scratch.
func (iv *invariants) check(m *coherent.Machine, blocks int, inflight []*coherent.Msg) error {
	if errs := m.Mon.Errors(); len(errs) > 0 {
		return fmt.Errorf("monitor: %s", errs[0])
	}
	ce, _ := m.Protocol().(coherent.CoverageEnumerator)
	sc, _ := m.Protocol().(coherent.ShapeChecker)
	iv.procs = len(m.Nodes)
	for b := coherent.BlockID(0); int(b) < blocks; b++ {
		iv.holders.reset(iv.procs)
		iv.exclusive.reset(iv.procs)
		iv.covered.reset(iv.procs)
		for n := range m.Nodes {
			ln := m.Nodes[n].Cache.Lookup(b)
			if ln == nil || ln.State == cache.Invalid {
				continue
			}
			iv.holders.add(coherent.NodeID(n))
			if ln.State == cache.Exclusive {
				iv.exclusive.add(coherent.NodeID(n))
				cur := m.Store.Value(b)
				old, inFlight := m.Store.WriteInFlight(b)
				if ln.Val != cur && !(inFlight && ln.Val == old) {
					return fmt.Errorf("value: node %d holds block %d exclusive with %d, memory image is %d", n, b, ln.Val, cur)
				}
			}
		}
		if owners := iv.exclusive.count(); owners > 1 {
			return fmt.Errorf("swmr: block %d has %d exclusive owners %v", b, owners, iv.exclusive.nodes())
		}
		if iv.exclusive.count() == 1 && iv.holders.count() > 1 {
			return fmt.Errorf("swmr: block %d owned exclusively by node %d alongside copies at %v", b, iv.exclusive.nodes()[0], iv.holders.nodes())
		}
		if sc != nil {
			if err := sc.CheckShape(m, b); err != nil {
				return err
			}
		}
		if ce != nil {
			if h := iv.coverage(m, ce, b, inflight); h != coherent.NoNode {
				return fmt.Errorf("coverage: node %d holds a stable copy of block %d the directory cannot reach", h, b)
			}
		}
	}
	return nil
}

// coverage requires every stable copy of b, the nodes in iv.holders, to
// be reachable from the directory's knowledge, and returns the first
// holder that is not, or NoNode; iv.covered starts empty. The start set
// is the directory's own records (CoverageRoots) plus every node
// referenced by in-flight state — undelivered messages, deferred
// messages, outstanding transactions — because a copy being handed off
// or torn down is legitimately covered by the message that will reach
// it. The set is closed under CoverageEdges (tree children, list
// successors, tombstones). A stable copy outside the closure is a lost
// copy: no future write wave can invalidate it.
//
//dirccvet:hotpath
func (iv *invariants) coverage(m *coherent.Machine, ce coherent.CoverageEnumerator, b coherent.BlockID, inflight []*coherent.Msg) coherent.NodeID {
	iv.frontier = iv.frontier[:0]
	for _, n := range ce.CoverageRoots(m, b) {
		iv.cover(n)
	}
	for _, msg := range inflight {
		iv.coverMsg(msg, b)
	}
	for n := range m.Nodes {
		if txn := m.Txn(coherent.NodeID(n), b); txn != nil {
			iv.cover(coherent.NodeID(n))
			for _, d := range txn.Deferred {
				iv.coverMsg(d, b)
			}
		}
	}
	for len(iv.frontier) > 0 {
		n := iv.frontier[len(iv.frontier)-1]
		iv.frontier = iv.frontier[:len(iv.frontier)-1]
		for _, c := range ce.CoverageEdges(m, b, n) {
			iv.cover(c)
		}
	}
	for w, bits := range iv.holders {
		if missed := bits &^ iv.covered[w]; missed != 0 {
			return coherent.NodeID(w*64 + mathbits.TrailingZeros64(missed))
		}
	}
	return coherent.NoNode
}

// cover adds node n, if it is a node of the machine and not covered
// yet, to the covered set and the frontier.
func (iv *invariants) cover(n coherent.NodeID) {
	if n >= 0 && int(n) < iv.procs && iv.covered.add(n) {
		iv.frontier = append(iv.frontier, n)
	}
}

// coverMsg covers every node msg names, if it concerns block b.
func (iv *invariants) coverMsg(msg *coherent.Msg, b coherent.BlockID) {
	if msg.Block != b {
		return
	}
	iv.cover(msg.Src)
	iv.cover(msg.Dst)
	iv.cover(msg.Requester)
	iv.cover(msg.Aux)
	if !msg.AckDir {
		iv.cover(msg.AckTo)
	}
	for _, p := range msg.Ptrs.Nodes() {
		iv.cover(p)
	}
}

// nodeSet is a set of a machine's nodes, one bit per node: node n is
// bit n%64 of word n/64.
type nodeSet []uint64

// reset empties s and sizes it for nodes nodes.
func (s *nodeSet) reset(nodes int) {
	words := (nodes + 63) / 64
	if cap(*s) < words {
		*s = make(nodeSet, words)
		return
	}
	*s = (*s)[:words]
	clear(*s)
}

// add puts n in s and reports whether it was absent.
func (s nodeSet) add(n coherent.NodeID) bool {
	w, bit := n/64, uint64(1)<<(n%64)
	if s[w]&bit != 0 {
		return false
	}
	s[w] |= bit
	return true
}

// count returns the number of nodes in s.
func (s nodeSet) count() int {
	c := 0
	for _, w := range s {
		c += mathbits.OnesCount64(w)
	}
	return c
}

// nodes lists the nodes in s in node order, for an error message.
func (s nodeSet) nodes() []coherent.NodeID {
	var out []coherent.NodeID
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, coherent.NodeID(i*64+mathbits.TrailingZeros64(w)))
		}
	}
	return out
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
