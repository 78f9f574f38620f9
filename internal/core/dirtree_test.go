package core

import (
	"fmt"
	"sort"
	"testing"

	"dircc/internal/cache"
	"dircc/internal/coherent"
	"dircc/internal/proc"
	"dircc/internal/protocol/ptest"
)

func TestConformance(t *testing.T) {
	for _, c := range []struct{ i, k int }{{1, 2}, {2, 2}, {4, 2}, {8, 2}, {4, 4}} {
		c := c
		t.Run(fmt.Sprintf("Dir%dTree%d", c.i, c.k), func(t *testing.T) {
			ptest.Conformance(t, func() coherent.Engine { return New(c.i, c.k) })
		})
	}
}

func TestConformanceUpdateVariant(t *testing.T) {
	for _, c := range []struct{ i, k int }{{2, 2}, {4, 2}} {
		c := c
		t.Run(fmt.Sprintf("Dir%dTree%dU", c.i, c.k), func(t *testing.T) {
			ptest.Conformance(t, func() coherent.Engine {
				return NewWithOptions(c.i, c.k, Options{Update: true})
			})
		})
	}
}

func TestConformanceNoSiblingAck(t *testing.T) {
	ptest.Conformance(t, func() coherent.Engine {
		return NewWithOptions(4, 2, Options{NoSiblingAck: true})
	})
}

// The update variant keeps sharer copies alive across writes: after a
// producer updates, consumers must read fresh values as cache hits (no
// re-miss storm).
func TestUpdateVariantKeepsCopies(t *testing.T) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, NewWithOptions(4, 2, Options{Update: true}))
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	stale := 0
	var missesAfterWarmup uint64
	if _, err := proc.Run(m, func(e proc.Env) {
		e.Read(addr) // everyone joins the sharing trees
		e.Barrier()
		if e.ID() == 0 {
			missesAfterWarmup = m.Ctr.ReadMisses
		}
		for round := 0; round < 10; round++ {
			if e.ID() == 0 {
				e.Write(addr, uint64(round)+100)
			}
			e.Barrier()
			if e.Read(addr) != uint64(round)+100 {
				stale++
			}
			e.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if stale != 0 {
		t.Fatalf("%d stale reads under the update protocol", stale)
	}
	if m.Ctr.ReadMisses != missesAfterWarmup {
		t.Fatalf("consumers re-missed %d times; updates should have kept copies valid",
			m.Ctr.ReadMisses-missesAfterWarmup)
	}
	if m.Ctr.MsgByType["Update"] == 0 {
		t.Fatal("no Update messages sent")
	}
}

func TestUpdateVariantName(t *testing.T) {
	e := NewWithOptions(4, 2, Options{Update: true})
	if e.Name() != "Dir4Tree2U" || !e.UpdatesCopies() {
		t.Fatalf("update variant identity wrong: %s", e.Name())
	}
	if New(4, 2).UpdatesCopies() {
		t.Fatal("invalidation variant claims to update copies")
	}
}

func TestNameAndParams(t *testing.T) {
	e := New(4, 2)
	if e.Name() != "Dir4Tree2" || e.Pointers() != 4 || e.Arity() != 2 {
		t.Fatalf("identity wrong: %s %d %d", e.Name(), e.Pointers(), e.Arity())
	}
}

func TestNewPanicsOnBadParams(t *testing.T) {
	for _, fn := range []func(){func() { New(0, 2) }, func() { New(4, 0) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad params did not panic")
				}
			}()
			fn()
		}()
	}
}

// machineWithSequentialReaders builds a 16-node machine where nodes
// 0..n-1 read the same block one at a time in node order. Node IDs map
// to the paper's arrival sequence (node j = (j+1)-th request).
func machineWithSequentialReaders(t *testing.T, eng *Engine, readers int) *coherent.Machine {
	t.Helper()
	cfg := coherent.DefaultConfig(16)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		for turn := 0; turn < readers; turn++ {
			if turn == e.ID() {
				e.Read(addr)
			}
			e.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// slotsOf extracts (node, level) pairs from the directory entry of the
// only allocated block.
func slotsOf(e *Engine, m *coherent.Machine) []slot {
	en := e.entry(m.BlockOf(0))
	out := make([]slot, len(en.slots))
	copy(out, en.slots)
	return out
}

func childrenAt(m *coherent.Machine, n coherent.NodeID) []coherent.NodeID {
	ln := m.Nodes[n].Cache.Lookup(m.BlockOf(0))
	if ln == nil {
		return nil
	}
	return childrenOf(ln)
}

// forestOf walks the directory slots and returns, per root, the set of
// reachable nodes; it also verifies the k-children bound and that every
// slot's recorded level is at least the real tree height.
func forestOf(t *testing.T, e *Engine, m *coherent.Machine) map[coherent.NodeID][]coherent.NodeID {
	t.Helper()
	forest := make(map[coherent.NodeID][]coherent.NodeID)
	for _, s := range slotsOf(e, m) {
		var nodes []coherent.NodeID
		var walk func(n coherent.NodeID, depth int) int
		walk = func(n coherent.NodeID, depth int) int {
			nodes = append(nodes, n)
			kids := childrenAt(m, n)
			if len(kids) > e.arity {
				t.Fatalf("node %d has %d children, arity is %d", n, len(kids), e.arity)
			}
			h := depth
			for _, c := range kids {
				if ch := walk(c, depth+1); ch > h {
					h = ch
				}
			}
			return h
		}
		height := walk(s.node, 1)
		if height > s.level {
			t.Fatalf("slot %v records level %d but real height is %d", s, s.level, height)
		}
		forest[s.node] = nodes
	}
	return forest
}

// TestPaperFigure1TreeShapes replays the 14 sequential read requests of
// the paper's Figure 1 under Dir_4Tree_2. The paper's exact node labels
// depend on an unspecified case-3 tie-break, so this verifies the
// figure's structural content: at most 4 trees jointly covering all 14
// sharers exactly once, binary fan-out, and near-balance (max level 4 —
// one above a perfect binary tree, as the paper claims).
func TestPaperFigure1TreeShapes(t *testing.T) {
	e := New(4, 2)
	m := machineWithSequentialReaders(t, e, 14)
	forest := forestOf(t, e, m)
	if len(forest) > 4 {
		t.Fatalf("%d roots, want <= 4", len(forest))
	}
	seen := map[coherent.NodeID]int{}
	total := 0
	for _, nodes := range forest {
		for _, n := range nodes {
			seen[n]++
			total++
		}
	}
	if total != 14 {
		t.Fatalf("forest covers %d nodes, want 14", total)
	}
	for n, c := range seen {
		if c != 1 {
			t.Fatalf("node %d appears %d times in the forest", n, c)
		}
	}
	for _, s := range slotsOf(e, m) {
		if s.level > 4 {
			t.Fatalf("tree at %v deeper than the near-balanced bound", s)
		}
	}
}

// TestPaperFigure5FifteenthRequest: the 15th read request finds no free
// pointer and two trees of equal height; it must merge them (case 3),
// becoming a root whose children are exactly the two former equal-level
// roots — in two messages.
func TestPaperFigure5FifteenthRequest(t *testing.T) {
	e := New(4, 2)
	m14 := machineWithSequentialReaders(t, New(4, 2), 14)
	before := slotsOf(m14.Protocol().(*Engine), m14)
	// Identify the equal-level pair case 3 will take (lowest level
	// appearing at least twice, first two in slot order).
	levels := map[int][]coherent.NodeID{}
	for _, s := range before {
		levels[s.level] = append(levels[s.level], s.node)
	}
	bestLevel := -1
	for l, ns := range levels {
		if len(ns) >= 2 && (bestLevel < 0 || l < bestLevel) {
			bestLevel = l
		}
	}
	if bestLevel < 0 {
		t.Fatal("no equal-level pair at 14 sharers; scenario broken")
	}
	var wantChildren []coherent.NodeID
	for _, s := range before {
		if s.level == bestLevel && len(wantChildren) < 2 {
			wantChildren = append(wantChildren, s.node)
		}
	}

	m := machineWithSequentialReaders(t, e, 15)
	if e.entry(m.BlockOf(0)).slotOf(14) < 0 {
		t.Fatal("15th requester not recorded as a root")
	}
	got := append([]coherent.NodeID(nil), childrenAt(m, 14)...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(wantChildren, func(i, j int) bool { return wantChildren[i] < wantChildren[j] })
	if len(got) != 2 || got[0] != wantChildren[0] || got[1] != wantChildren[1] {
		t.Fatalf("children of the 15th requester = %v, want the merged pair %v", got, wantChildren)
	}
	// The forest still covers all 15 sharers exactly once.
	forest := forestOf(t, e, m)
	total := 0
	for _, nodes := range forest {
		total += len(nodes)
	}
	if total != 15 {
		t.Fatalf("forest covers %d nodes, want 15", total)
	}
}

// TestSixteenSharersForest reproduces the paper's Table 4 commentary:
// with 16 sharers under Dir_4Tree_2, pointers hold two 7-node trees and
// two singletons.
func TestSixteenSharersForest(t *testing.T) {
	e := New(4, 2)
	m := machineWithSequentialReaders(t, e, 16)
	got := slotsOf(e, m)
	if len(got) != 4 {
		t.Fatalf("slots = %v, want 4 entries", got)
	}
	sizes := map[int]int{} // level -> count
	for _, s := range got {
		sizes[s.level]++
	}
	if sizes[3] != 2 || sizes[1] != 2 {
		t.Fatalf("forest shape %v, want two level-3 trees and two singletons", got)
	}
	// Count total reachable nodes = 16.
	total := 0
	var walk func(n coherent.NodeID)
	walk = func(n coherent.NodeID) {
		total++
		for _, c := range childrenAt(m, n) {
			walk(c)
		}
	}
	for _, s := range got {
		walk(s.node)
	}
	if total != 16 {
		t.Fatalf("forest covers %d nodes, want 16", total)
	}
}

// TestFigure6Case1AlreadyRecorded: a re-read by a recorded root must
// not change the slots.
func TestFigure6Case1AlreadyRecorded(t *testing.T) {
	e := New(4, 2)
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	cfg.CacheBytes = 16 * cfg.BlockBytes // tiny: force replacement
	m, err := coherent.NewMachine(cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	spill := m.Alloc(64 * 8)
	if _, err := proc.Run(m, func(env proc.Env) {
		if env.ID() != 0 {
			return
		}
		env.Read(addr)
		// Evict it by sweeping a large region, then re-read.
		for i := 0; i < 64; i++ {
			env.Read(spill + uint64(i*8))
		}
		env.Read(addr)
	}); err != nil {
		t.Fatal(err)
	}
	en := e.entry(m.BlockOf(addr))
	if len(en.slots) != 1 || en.slots[0].node != 0 || en.slots[0].level != 1 {
		t.Fatalf("slots after re-read = %v, want [{0 1}]", en.slots)
	}
}

// TestFigure7InvalidationWave: with 14 sharers (Figure 1's forest), a
// write miss must deliver exactly ceil(4/2)=2 acknowledgments to the
// home (odd roots ack their even siblings), and afterwards no cache but
// the writer holds the block.
func TestFigure7InvalidationWave(t *testing.T) {
	e := New(4, 2)
	cfg := coherent.DefaultConfig(16)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(env proc.Env) {
		for turn := 0; turn < 14; turn++ {
			if turn == env.ID() {
				env.Read(addr)
			}
			env.Barrier()
		}
		if env.ID() == 15 {
			env.Write(addr, 7)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// 14 sharers invalidated: 4 root Invs from home + 10 child
	// forwards.
	if m.Ctr.Invalidations != 14 {
		t.Fatalf("invalidations = %d, want 14", m.Ctr.Invalidations)
	}
	if m.Ctr.InvAcks != 14 {
		t.Fatalf("acks = %d, want 14", m.Ctr.InvAcks)
	}
	b := m.BlockOf(addr)
	for _, node := range m.Nodes {
		if node.ID == 15 {
			continue
		}
		if ln := node.Cache.Lookup(b); ln != nil && ln.State != cache.Invalid {
			t.Fatalf("node %d still holds the block after the wave", node.ID)
		}
	}
	en := e.entry(b)
	if len(en.slots) != 1 || en.slots[0].node != 15 || en.state != dirty {
		t.Fatalf("directory after write: %+v", en)
	}
}

// TestReadMissTwoMessages: like the limited directory, a read miss on
// an uncached block must cost exactly two messages.
func TestReadMissTwoMessages(t *testing.T) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, New(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		if e.ID() == 3 {
			e.Read(addr)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if m.Ctr.Messages != 2 {
		t.Fatalf("read miss used %d messages, want 2", m.Ctr.Messages)
	}
}

// TestReadMissPointerHandoffStillTwoMessages: even on overflow (case 3)
// the miss costs two messages — the pointers ride the data reply.
func TestReadMissPointerHandoffStillTwoMessages(t *testing.T) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, New(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		for turn := 0; turn < 3; turn++ {
			if turn == e.ID() {
				e.Read(addr)
			}
			e.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	// 3 reads x 2 messages; the third triggered a case-3 merge.
	if m.Ctr.Messages != 6 {
		t.Fatalf("messages = %d, want 6", m.Ctr.Messages)
	}
	if m.Ctr.TreeMerges != 1 {
		t.Fatalf("merges = %d, want 1", m.Ctr.TreeMerges)
	}
}

// TestReplacementTeardown: evicting a tree root sends Replace_INV down
// its subtree, with no acks and no home traffic, and the subtree's
// copies become invalid.
func TestReplacementTeardown(t *testing.T) {
	e := New(2, 2)
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	cfg.CacheBytes = 4 * cfg.BlockBytes
	m, err := coherent.NewMachine(cfg, e)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	spill := m.Alloc(16 * 8)
	if _, err := proc.Run(m, func(env proc.Env) {
		// Nodes 0,1,2 read; node 2 merges 0 and 1 as children.
		for turn := 0; turn < 3; turn++ {
			if turn == env.ID() {
				env.Read(addr)
			}
			env.Barrier()
		}
		// Node 2 (the root) evicts the block by sweeping.
		if env.ID() == 2 {
			for i := 0; i < 16; i++ {
				env.Read(spill + uint64(i*8))
			}
		}
		env.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if m.Ctr.ReplaceInvs < 2 {
		t.Fatalf("ReplaceInvs = %d, want >= 2 (children of the evicted root)", m.Ctr.ReplaceInvs)
	}
	b := m.BlockOf(addr)
	for _, n := range []coherent.NodeID{0, 1, 2} {
		if ln := m.Nodes[n].Cache.Lookup(b); ln != nil && ln.State != cache.Invalid {
			t.Fatalf("node %d kept a copy after subtree teardown", n)
		}
	}
	// The home was never told: its slots still name node 2.
	en := e.entry(b)
	if en.slotOf(2) < 0 {
		t.Fatalf("home slots %v should still (stale) point at node 2", en.slots)
	}
}

// TestDanglingPointerSafety: after a silent teardown of a tree's root,
// a write miss must still complete (stale roots ack immediately, the
// victim buffer routes the wave below them) and coherence holds, on
// both tree engines.
func TestDanglingPointerSafety(t *testing.T) {
	for _, c := range []struct {
		name string
		eng  coherent.Engine
		root int // the tree's root after nodes 0, 1, 2 read in turn
	}{
		{"Dir2Tree2", New(2, 2), 2}, // node 2 adopts 0 and 1 (Figure 6 case 3)
		{"STP", NewSTP(), 0},        // the first reader becomes the root
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := coherent.DefaultConfig(8)
			cfg.Check = true
			cfg.CacheBytes = 4 * cfg.BlockBytes
			m, err := coherent.NewMachine(cfg, c.eng)
			if err != nil {
				t.Fatal(err)
			}
			addr := m.Alloc(8)
			spill := m.Alloc(16 * 8)
			var got uint64
			if _, err := proc.Run(m, func(env proc.Env) {
				for turn := 0; turn < 3; turn++ {
					if turn == env.ID() {
						env.Read(addr)
					}
					env.Barrier()
				}
				if env.ID() == c.root {
					for i := 0; i < 16; i++ {
						env.Read(spill + uint64(i*8))
					}
				}
				env.Barrier()
				if env.ID() == 5 {
					env.Write(addr, 4242)
				}
				env.Barrier()
				if env.ID() == 1 {
					got = env.Read(addr)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if m.Ctr.ReplaceInvs < 2 {
				t.Fatalf("ReplaceInvs = %d, want >= 2 (children of the evicted root)", m.Ctr.ReplaceInvs)
			}
			if got != 4242 {
				t.Fatalf("read %d after write through dangling pointers, want 4242", got)
			}
		})
	}
}

func TestDirectoryBits(t *testing.T) {
	cfg := coherent.DefaultConfig(32)
	e := New(4, 2)
	// B·n·2i·log n + C·k·log n·n: B=100, n=32, log n=5, C=2048.
	want := int64(100*32*2*4*5) + int64(2048*32*2*5)
	if got := e.DirectoryBits(cfg, 100); got != want {
		t.Fatalf("DirectoryBits = %d, want %d", got, want)
	}
	// At paper scale (1024 nodes, 4096 shared blocks per node) the tree
	// directory must be far below full-map's B·n².
	big := coherent.DefaultConfig(1024)
	fmBits := int64(4096) * 1024 * 1024
	if got := e.DirectoryBits(big, 4096); got >= fmBits/4 {
		t.Fatalf("tree directory (%d bits) not far below full-map (%d) at scale", got, fmBits)
	}
}

func BenchmarkDir4Tree2Mix(b *testing.B) {
	ptest.BenchmarkMix(b, func() coherent.Engine { return New(4, 2) })
}
