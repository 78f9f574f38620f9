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
