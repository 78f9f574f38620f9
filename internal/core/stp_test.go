package core

import (
	"testing"

	"dircc/internal/cache"
	"dircc/internal/coherent"
	"dircc/internal/proc"
	"dircc/internal/protocol/ptest"
)

func TestSTPConformance(t *testing.T) {
	ptest.Conformance(t, func() coherent.Engine { return NewSTP() })
}

func TestSTPName(t *testing.T) {
	if NewSTP().Name() != "stp" {
		t.Fatal("name wrong")
	}
}

// build a machine where `sharers` processors read one block in turn.
func sharedMachine(t *testing.T, eng coherent.Engine, procs, sharers int, writer int) *coherent.Machine {
	t.Helper()
	cfg := coherent.DefaultConfig(procs)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		for turn := 0; turn < sharers; turn++ {
			if turn == e.ID() {
				e.Read(addr)
			}
			e.Barrier()
		}
		if writer >= 0 && e.ID() == writer {
			e.Write(addr, 5)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// The tree must stay balanced: with 15 sequential sharers, the deepest
// insertion descent is logarithmic, so no read costs more than
// 2 + 2 + depth messages.
func TestBalancedTreeShape(t *testing.T) {
	eng := NewSTP()
	m := sharedMachine(t, eng, 16, 15, -1)
	b := m.BlockOf(0)
	en := eng.entry(b)
	if en.root == coherent.NoNode {
		t.Fatal("no root after 15 reads")
	}
	depth, count := 0, 0
	var walk func(n coherent.NodeID, d int)
	walk = func(n coherent.NodeID, d int) {
		count++
		if d > depth {
			depth = d
		}
		ln := m.Nodes[n].Cache.Lookup(b)
		if ln == nil {
			t.Fatalf("tree node %d has no line", n)
		}
		for _, c := range childrenOf(ln) {
			walk(c, d+1)
		}
	}
	walk(en.root, 1)
	if count != 15 {
		t.Fatalf("tree covers %d nodes, want 15", count)
	}
	// A balanced binary tree of 15 nodes has depth 4.
	if depth != 4 {
		t.Fatalf("tree depth %d, want 4 (balanced)", depth)
	}
}

// Write miss invalidation must reach every sharer and aggregate acks so
// the home sees exactly one.
func TestInvalidationWave(t *testing.T) {
	m := sharedMachine(t, NewSTP(), 16, 10, 15)
	if m.Ctr.Invalidations != 10 {
		t.Fatalf("invalidations = %d, want 10", m.Ctr.Invalidations)
	}
	b := m.BlockOf(0)
	for _, node := range m.Nodes {
		if node.ID == 15 {
			continue
		}
		if ln := node.Cache.Lookup(b); ln != nil && ln.State != cache.Invalid {
			t.Fatalf("node %d survived the wave", node.ID)
		}
	}
}

// Insertion after the root was silently replaced must bounce and
// re-root rather than hang.
func TestBounceReRoots(t *testing.T) {
	eng := NewSTP()
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	cfg.CacheBytes = 4 * cfg.BlockBytes
	m, err := coherent.NewMachine(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	spill := m.Alloc(16 * 8)
	var got uint64
	if _, err := proc.Run(m, func(e proc.Env) {
		if e.ID() == 0 {
			e.Read(addr)
			for i := 0; i < 16; i++ {
				e.Read(spill + uint64(i*8)) // evict the root's copy
			}
		}
		e.Barrier()
		if e.ID() == 1 {
			got = e.Read(addr) // descends into the dead root, bounces
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("bounced read returned %d, want 0", got)
	}
	en := eng.entry(m.BlockOf(addr))
	if en.root != 1 {
		t.Fatalf("root = %d after bounce, want the re-rooted requester 1", en.root)
	}
}

// Read miss cost: 2 for the first reader, and 2+depth+2 for later
// readers (request, descent, data, done) — the paper's "4 to 8".
func TestReadMissCost(t *testing.T) {
	m := sharedMachine(t, NewSTP(), 8, 2, -1)
	// Reader 0: 2 messages. Reader 1: req + fwd + data + done = 4.
	if m.Ctr.Messages != 6 {
		t.Fatalf("messages = %d, want 6 (types %v)", m.Ctr.Messages, m.Ctr.MsgByType)
	}
}

func TestSTPDirectoryBits(t *testing.T) {
	cfg := coherent.DefaultConfig(32)
	want := int64(100)*32*2*5 + int64(cfg.CacheLines())*32*2*2*5
	if got := NewSTP().DirectoryBits(cfg, 100); got != want {
		t.Fatalf("DirectoryBits = %d, want %d", got, want)
	}
}

func BenchmarkSTPMix(b *testing.B) {
	ptest.BenchmarkMix(b, func() coherent.Engine { return NewSTP() })
}

// handDelivery intercepts a machine's transport so a test delivers each
// message when it chooses, as the model checker does.
type handDelivery struct {
	t *testing.T
	m *coherent.Machine
	q []*coherent.Msg
}

func newHandDelivery(t *testing.T, m *coherent.Machine) *handDelivery {
	h := &handDelivery{t: t, m: m}
	m.SetSendHook(func(msg *coherent.Msg) { h.q = append(h.q, msg) })
	return h
}

// run drains the kernel's own events (issue, completion, gate restarts).
func (h *handDelivery) run() {
	h.t.Helper()
	if err := h.m.RunKernel(); err != nil {
		h.t.Fatal(err)
	}
}

// deliver delivers the oldest queued message of type typ to dst.
func (h *handDelivery) deliver(typ coherent.MsgType, dst coherent.NodeID) {
	h.t.Helper()
	for i, msg := range h.q {
		if msg.Type == typ && msg.Dst == dst {
			h.q = append(h.q[:i], h.q[i+1:]...)
			h.m.Deliver(msg)
			h.run()
			return
		}
	}
	h.t.Fatalf("no %s to node %d in flight", typ, dst)
}

// drain delivers everything in flight, oldest first, until nothing is.
func (h *handDelivery) drain() {
	h.t.Helper()
	for len(h.q) > 0 {
		msg := h.q[0]
		h.q = h.q[1:]
		h.m.Deliver(msg)
		h.run()
	}
}

// TestSTPStaleDoneSparesNewerRead builds the race stpPending.serial
// exists for. Node 2 is adopted under root 1, and the ChainData reaches
// it before the adopter's Done reaches the home: node 2's read completes,
// node 2 silently replaces the line, a write from node 3 queues at the
// still-held gate, and node 2's re-read queues behind it, in the very
// transaction record its first read used. When the stale Done arrives,
// the home must not mark that newer read served: the write's Inv would
// then be deferred onto a read that waits for the write, a deadlock.
func TestSTPStaleDoneSparesNewerRead(t *testing.T) {
	cfg := coherent.DefaultConfig(4)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, NewSTP())
	if err != nil {
		t.Fatal(err)
	}
	h := newHandDelivery(t, m)
	addr := m.Alloc(8)
	b := m.BlockOf(addr)
	home := m.Home(b)
	done := func(uint64) {}

	m.Access(1, addr, false, 0, done) // node 1 becomes the root
	h.run()
	h.drain()
	m.Access(2, addr, false, 0, done)
	h.run()
	first := m.Txn(2, b)
	serial := first.Serial
	h.deliver(coherent.MsgReadReq, home)
	h.deliver(coherent.MsgFwd, 1) // root 1 adopts node 2: ChainData and Done leave
	h.deliver(coherent.MsgChainData, 2)
	if m.Txn(2, b) != nil {
		t.Fatal("node 2's read did not complete on the ChainData")
	}
	if !m.ReplaceBlock(2, b) {
		t.Fatal("node 2 holds no copy to replace")
	}
	m.Access(3, addr, true, 7, done)
	h.run()
	h.deliver(coherent.MsgWriteReq, home) // queues at the gate the Done will release
	var got uint64
	m.Access(2, addr, false, 0, func(v uint64) { got = v })
	h.run()
	second := m.Txn(2, b)
	if second != first || second.Serial == serial {
		t.Fatalf("the re-read must reuse the first read's record with a new serial: serials %d and %d, same record %v",
			serial, second.Serial, second == first)
	}
	h.deliver(coherent.MsgReadReq, home) // queues behind the write
	h.deliver(coherent.MsgDone, home)
	if second.Served {
		t.Fatal("the stale Done marked node 2's newer read served")
	}
	h.drain()
	if err := m.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("node 2's re-read returned %d, want the write's 7", got)
	}
}
