package coherent

import (
	"fmt"
	mathbits "math/bits"

	"dircc/internal/cache"
)

// This file states once what must hold of a drained machine. The model
// checker asserts CheckDrained on every state it explores and
// CheckQuiescent on every terminal state, the fuzzer asserts
// CheckQuiescent between workload phases, and Quiesce asserts it at the
// end of every run: over every allocated block on a checked machine,
// over none on an unchecked one.

// CheckDrained asserts what must hold in every drained state of m (its
// event queue empty, messages possibly held undelivered by the send
// hook) for blocks [0, blocks):
//
//   - the monitor found no data-coherence violation;
//   - SWMR: an exclusive copy excludes every other copy;
//   - an exclusive copy agrees with the memory image, modulo one write
//     in flight past its serialization point;
//   - the directory structure is well formed, when the engine has a
//     shape (ShapeChecker);
//   - directory coverage: every stable copy is reachable from the
//     directory's records, when the engine can enumerate them
//     (CoverageEnumerator).
//
// inflight holds the messages the send hook holds undelivered; pass nil
// when there is no hook. Checking allocates nothing once the machine's
// scratch has grown to its node count.
func (m *Machine) CheckDrained(blocks int, inflight []*Msg) error {
	if errs := m.Mon.Errors(); len(errs) > 0 {
		return fmt.Errorf("monitor: %s", errs[0])
	}
	return m.checkBlocks(blocks, inflight, false)
}

// CheckQuiescent asserts the quiescence contract on a machine whose
// event queue has drained with nothing held back: nothing in the
// network, no outstanding transaction, no held gate and no monitor
// finding. For blocks [0, blocks) it then asserts CheckDrained's
// invariants, no unperformed write, no pinned line and no stale copy:
// once every write has performed and nothing is in transit, every
// surviving copy must carry its block's value, and a stale survivor is
// a copy an invalidation wave missed. A drain that leaves work behind
// (a lost message, an abandoned transaction, a held gate) is a protocol
// deadlock.
func (m *Machine) CheckQuiescent(blocks int) error {
	if n := m.Net.InFlight(); n != 0 {
		return fmt.Errorf("coherent: %d messages still in flight after quiesce", n)
	}
	for n, slots := range m.txns {
		for i := range slots {
			if t := slots[i].Load(); t != nil {
				return fmt.Errorf("coherent: node %d still has an outstanding transaction on block %d", n, t.Block)
			}
		}
	}
	if held := m.heldGates(); len(held) > 0 {
		return fmt.Errorf("coherent: block %d gate still busy at quiesce", held[0])
	}
	if errs := m.Mon.Errors(); len(errs) > 0 {
		return fmt.Errorf("coherent: %d coherence violations, first: %s", len(errs), errs[0])
	}
	return m.checkBlocks(blocks, nil, true)
}

// quiet is the scratch checkBlocks works in. It lives on the machine
// and survives Reset, so the model checker, which checks every state it
// explores, allocates nothing for it once the sets have grown.
type quiet struct {
	// procs is the machine's node count, the bound of every set.
	procs int
	// holders and exclusive are the nodes holding a stable copy, and an
	// exclusive one, of the block being checked.
	holders, exclusive nodeSet
	// covered and frontier are the coverage walk's visited set and
	// stack.
	covered  nodeSet
	frontier []NodeID
}

// checkBlocks asserts the per-block invariants of CheckDrained on
// blocks [0, blocks), and at a quiescence point those CheckQuiescent
// adds.
func (m *Machine) checkBlocks(blocks int, inflight []*Msg, quiescent bool) error {
	q := &m.quiet
	q.procs = len(m.Nodes)
	ce, _ := m.proto.(CoverageEnumerator)
	sc, _ := m.proto.(ShapeChecker)
	for b := BlockID(0); int(b) < blocks; b++ {
		old, writing := m.Store.WriteInFlight(b)
		if quiescent && writing {
			return fmt.Errorf("coherent: block %d ended with its write never performed", b)
		}
		cur := m.Store.Value(b)
		stale := NoNode
		q.holders.reset(q.procs)
		q.exclusive.reset(q.procs)
		q.covered.reset(q.procs)
		for n, node := range m.Nodes {
			ln := node.Cache.Lookup(b)
			if ln == nil {
				continue
			}
			if quiescent && ln.Pinned {
				return fmt.Errorf("coherent: node %d ended with pinned line for block %d", n, b)
			}
			if ln.State == cache.Invalid {
				continue
			}
			q.holders.add(NodeID(n))
			if ln.State == cache.Exclusive {
				q.exclusive.add(NodeID(n))
				if ln.Val != cur && !(writing && ln.Val == old) {
					return fmt.Errorf("value: node %d holds block %d exclusive with %d, memory image is %d", n, b, ln.Val, cur)
				}
			}
			if quiescent && ln.Val != cur && stale == NoNode {
				stale = NodeID(n)
			}
		}
		if owners := q.exclusive.count(); owners > 1 {
			return fmt.Errorf("swmr: block %d has %d exclusive owners %v", b, owners, q.exclusive.nodes())
		}
		if q.exclusive.count() == 1 && q.holders.count() > 1 {
			return fmt.Errorf("swmr: block %d owned exclusively by node %d alongside copies at %v", b, q.exclusive.nodes()[0], q.holders.nodes())
		}
		if sc != nil {
			if err := sc.CheckShape(m, b); err != nil {
				return err
			}
		}
		if ce != nil && q.holders.count() > 0 {
			if h := m.uncovered(ce, b, inflight); h != NoNode {
				return fmt.Errorf("coverage: node %d holds a stable copy of block %d the directory cannot reach", h, b)
			}
		}
		if stale != NoNode {
			return fmt.Errorf("stale: node %d holds block %d with %d at quiescence, memory image is %d",
				stale, b, m.Nodes[stale].Cache.Lookup(b).Val, cur)
		}
	}
	return nil
}

// uncovered requires every stable copy of b, the nodes in the scratch's
// holders, to be reachable from the directory's knowledge, and returns
// the first holder that is not, or NoNode; the scratch's covered set
// starts empty. The start set is the
// directory's own records (CoverageRoots) plus every node referenced by
// in-flight state (undelivered messages, deferred messages, outstanding
// transactions), because a copy being handed off or torn down is
// legitimately covered by the message that will reach it. The set is
// closed under CoverageEdges (tree children, list successors,
// tombstones). A stable copy outside the closure is a lost copy: no
// future write wave can invalidate it.
//
//dirccvet:hotpath
func (m *Machine) uncovered(ce CoverageEnumerator, b BlockID, inflight []*Msg) NodeID {
	q := &m.quiet
	q.frontier = q.frontier[:0]
	for _, n := range ce.CoverageRoots(m, b) {
		q.cover(n)
	}
	for _, msg := range inflight {
		q.coverMsg(msg, b)
	}
	for n := range m.Nodes {
		if txn := m.Txn(NodeID(n), b); txn != nil {
			q.cover(NodeID(n))
			for _, d := range txn.Deferred {
				q.coverMsg(d, b)
			}
		}
	}
	for len(q.frontier) > 0 {
		n := q.frontier[len(q.frontier)-1]
		q.frontier = q.frontier[:len(q.frontier)-1]
		for _, c := range ce.CoverageEdges(m, b, n) {
			q.cover(c)
		}
	}
	for w, bits := range q.holders {
		if missed := bits &^ q.covered[w]; missed != 0 {
			return NodeID(w*64 + mathbits.TrailingZeros64(missed))
		}
	}
	return NoNode
}

// cover adds node n, if it is a node of the machine and not covered
// yet, to the covered set and the frontier.
func (q *quiet) cover(n NodeID) {
	if n >= 0 && int(n) < q.procs && q.covered.add(n) {
		q.frontier = append(q.frontier, n)
	}
}

// coverMsg covers every node msg names, if it concerns block b.
func (q *quiet) coverMsg(msg *Msg, b BlockID) {
	if msg.Block != b {
		return
	}
	q.cover(msg.Src)
	q.cover(msg.Dst)
	q.cover(msg.Requester)
	q.cover(msg.Aux)
	if !msg.AckDir {
		q.cover(msg.AckTo)
	}
	for _, p := range msg.Ptrs.Nodes() {
		q.cover(p)
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
func (s nodeSet) add(n NodeID) bool {
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
func (s nodeSet) nodes() []NodeID {
	var out []NodeID
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, NodeID(i*64+mathbits.TrailingZeros64(w)))
		}
	}
	return out
}
