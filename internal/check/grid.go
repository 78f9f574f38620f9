package check

import (
	"dircc/internal/coherent"
	"dircc/internal/core"
	"dircc/internal/protocol/fullmap"
	"dircc/internal/protocol/limited"
	"dircc/internal/protocol/list"
)

// The standard programs. Write values are unique across each program
// so the data-coherence checks can tell every write apart.

// progPingPong: two nodes trade ownership of one block. Exercises
// upgrade, recall and writeback races at minimal size.
func progPingPong() [][]Op {
	return [][]Op{
		{{Kind: OpWrite, Block: 0, Value: 10}, {Kind: OpRead, Block: 0}},
		{{Kind: OpRead, Block: 0}, {Kind: OpWrite, Block: 0, Value: 11}},
	}
}

// progShare: readers build a sharing structure, one silently replaces
// its copy, then a writer tears the structure down. Exercises
// adoption, silent replacement (tombstones, dangling pointers), and a
// full invalidation wave racing both.
func progShare() [][]Op {
	return [][]Op{
		{{Kind: OpRead, Block: 0}},
		{{Kind: OpRead, Block: 0}, {Kind: OpReplace, Block: 0}},
		{{Kind: OpWrite, Block: 0, Value: 21}},
	}
}

// progConflict: two blocks through one-line caches, so every second
// access evicts the previous block. Exercises implicit replacement
// interleaved with foreign misses.
func progConflict() [][]Op {
	return [][]Op{
		{{Kind: OpWrite, Block: 0, Value: 30}, {Kind: OpRead, Block: 1}},
		{{Kind: OpRead, Block: 0}, {Kind: OpWrite, Block: 1, Value: 31}},
		{{Kind: OpRead, Block: 0}},
	}
}

// progStorm: a replacement storm over a read-only chain — two nodes
// silently replace their copies (one of them re-reading) while others
// attach. Minimal exhaustive reproduction of a fuzzer-found SCI
// deadlock: an attach aimed at a dead incarnation was deferred onto
// that node's new transaction, closing a cycle of deferred attaches.
func progStorm() [][]Op {
	return [][]Op{
		{{Kind: OpRead, Block: 0}},
		{{Kind: OpRead, Block: 0}, {Kind: OpReplace, Block: 0}, {Kind: OpRead, Block: 0}},
		{{Kind: OpRead, Block: 0}, {Kind: OpReplace, Block: 0}},
		{{Kind: OpRead, Block: 0}, {Kind: OpRead, Block: 1}},
	}
}

// progConflictStorm: the same re-read pressure produced by one-line
// cache conflicts instead of explicit replacements. Minimal exhaustive
// reproduction of a fuzzer-found SCI coverage violation: an evicting
// node whose attacher's Fwd was still in flight spliced with a stale
// prev pointer, orphaning the successor's copy.
func progConflictStorm() [][]Op {
	return [][]Op{
		{{Kind: OpRead, Block: 0}},
		{{Kind: OpRead, Block: 0}, {Kind: OpRead, Block: 1}, {Kind: OpRead, Block: 0}},
		{{Kind: OpRead, Block: 0}, {Kind: OpRead, Block: 1}},
		{{Kind: OpRead, Block: 0}},
	}
}

// progDirtyEvict: a writer replaces its exclusive copy while readers
// race the writeback. Exercises the dirty-evict memory-update window
// against reads served from home.
func progDirtyEvict() [][]Op {
	return [][]Op{
		{},
		{{Kind: OpWrite, Block: 0, Value: 50}, {Kind: OpReplace, Block: 0}, {Kind: OpRead, Block: 0}},
		{{Kind: OpRead, Block: 0}, {Kind: OpRead, Block: 1}},
		{{Kind: OpRead, Block: 0}},
	}
}

// progPurgeReplace: readers build a sharing structure over a dirty
// block, one replaces its copy, then the structure is rebuilt —
// invalidation/purge waves race tombstone routing.
func progPurgeReplace() [][]Op {
	return [][]Op{
		{{Kind: OpWrite, Block: 0, Value: 60}},
		{{Kind: OpRead, Block: 0}, {Kind: OpReplace, Block: 0}},
		{{Kind: OpRead, Block: 0}, {Kind: OpRead, Block: 1}},
		{{Kind: OpRead, Block: 0}},
	}
}

// progWriteReread: a write races a reader that silently replaces its
// copy and immediately re-reads. Minimal exhaustive reproduction of a
// fuzzer-found STP deadlock: the adopter's Done reached home after the
// re-read was issued, marking the wrong transaction served and
// deferring the write's invalidation onto a read queued behind that
// very write.
func progWriteReread() [][]Op {
	return [][]Op{
		{{Kind: OpRead, Block: 0}},
		{{Kind: OpRead, Block: 1}, {Kind: OpWrite, Block: 0, Value: 70}},
		{{Kind: OpRead, Block: 0}, {Kind: OpReplace, Block: 0}, {Kind: OpRead, Block: 0}},
		{{Kind: OpRead, Block: 0}},
	}
}

// progWide: every node reads, then the last one writes — the widest
// sharing set P-1 allows, driving root-slot overflow (limited
// directories, tree record cases) and the Figure 7 sibling-ack
// pairing on teardown.
func progWide(procs int) [][]Op {
	prog := make([][]Op, procs)
	for n := 0; n < procs-1; n++ {
		prog[n] = []Op{{Kind: OpRead, Block: 0}}
	}
	prog[procs-1] = []Op{{Kind: OpWrite, Block: 0, Value: 40}}
	return prog
}

// Grid returns the verification matrix: every protocol engine of the
// repository over tiny machines (P in 2..4, one or two blocks,
// one-line caches), trees at both arities and both pointer counts,
// plus the NoSiblingAck and Update ablations. Entries marked wide are
// the larger state spaces, skipped under -short.
type GridEntry struct {
	Config Config
	// Wide marks the larger state spaces (skipped under -short).
	Wide bool
}

func Grid() []GridEntry {
	return []GridEntry{
		{Config: Config{Name: "fm-p2", NewEngine: func() coherent.Engine { return fullmap.New() }, Procs: 2, Blocks: 1, Program: progPingPong()}},
		{Config: Config{Name: "fm-p3", NewEngine: func() coherent.Engine { return fullmap.New() }, Procs: 3, Blocks: 1, Program: progShare()}},
		{Config: Config{Name: "fm-p3-conflict", NewEngine: func() coherent.Engine { return fullmap.New() }, Procs: 3, Blocks: 2, Program: progConflict()}, Wide: true},
		{Config: Config{Name: "dir1b-p3", NewEngine: func() coherent.Engine { return limited.NewB(1) }, Procs: 3, Blocks: 1, Program: progShare()}},
		{Config: Config{Name: "dir2nb-p3", NewEngine: func() coherent.Engine { return limited.NewNB(2) }, Procs: 3, Blocks: 1, Program: progShare()}},
		{Config: Config{Name: "ll2-p3", NewEngine: func() coherent.Engine { return limited.NewLimitLESS(2) }, Procs: 3, Blocks: 1, Program: progShare()}},
		{Config: Config{Name: "sll-p3", NewEngine: func() coherent.Engine { return list.NewSLL() }, Procs: 3, Blocks: 1, Program: progShare()}},
		{Config: Config{Name: "sci-p3", NewEngine: func() coherent.Engine { return list.NewSCI() }, Procs: 3, Blocks: 1, Program: progShare()}},
		{Config: Config{Name: "stp-p3", NewEngine: func() coherent.Engine { return core.NewSTP() }, Procs: 3, Blocks: 1, Program: progShare()}},
		{Config: Config{Name: "tree1x2-p3", NewEngine: func() coherent.Engine { return core.New(1, 2) }, Procs: 3, Blocks: 1, Program: progShare()}},
		{Config: Config{Name: "tree2x2-p3", NewEngine: func() coherent.Engine { return core.New(2, 2) }, Procs: 3, Blocks: 1, Program: progShare()}},
		{Config: Config{Name: "tree1x3-p3", NewEngine: func() coherent.Engine { return core.New(1, 3) }, Procs: 3, Blocks: 1, Program: progShare()}},
		{Config: Config{Name: "tree1x2-p3-conflict", NewEngine: func() coherent.Engine { return core.New(1, 2) }, Procs: 3, Blocks: 2, Program: progConflict()}, Wide: true},
		{Config: Config{Name: "tree1x2-p4-wide", NewEngine: func() coherent.Engine { return core.New(1, 2) }, Procs: 4, Blocks: 1, Program: progWide(4)}, Wide: true},
		{Config: Config{Name: "tree2x3-p4-wide", NewEngine: func() coherent.Engine { return core.New(2, 3) }, Procs: 4, Blocks: 1, Program: progWide(4)}, Wide: true},
		{Config: Config{Name: "tree2x2-p4-nosib", NewEngine: func() coherent.Engine {
			return core.NewWithOptions(2, 2, core.Options{NoSiblingAck: true})
		}, Procs: 4, Blocks: 1, Program: progWide(4)}, Wide: true},
		{Config: Config{Name: "tree2x2-p3-update", NewEngine: func() coherent.Engine {
			return core.NewWithOptions(2, 2, core.Options{Update: true})
		}, Procs: 3, Blocks: 1, Program: progShare()}},
		{Config: Config{Name: "fm-p4-wide", NewEngine: func() coherent.Engine { return fullmap.New() }, Procs: 4, Blocks: 1, Program: progWide(4)}, Wide: true},
		{Config: Config{Name: "dir2nb-p4-wide", NewEngine: func() coherent.Engine { return limited.NewNB(2) }, Procs: 4, Blocks: 1, Program: progWide(4)}, Wide: true},
		{Config: Config{Name: "dir2b-p4-wide", NewEngine: func() coherent.Engine { return limited.NewB(2) }, Procs: 4, Blocks: 1, Program: progWide(4)}, Wide: true},
		{Config: Config{Name: "ll2-p4-wide", NewEngine: func() coherent.Engine { return limited.NewLimitLESS(2) }, Procs: 4, Blocks: 1, Program: progWide(4)}, Wide: true},
		{Config: Config{Name: "sll-p4-wide", NewEngine: func() coherent.Engine { return list.NewSLL() }, Procs: 4, Blocks: 1, Program: progWide(4)}, Wide: true},
		{Config: Config{Name: "sci-p4-wide", NewEngine: func() coherent.Engine { return list.NewSCI() }, Procs: 4, Blocks: 1, Program: progWide(4)}, Wide: true},
		{Config: Config{Name: "stp-p4-wide", NewEngine: func() coherent.Engine { return core.NewSTP() }, Procs: 4, Blocks: 1, Program: progWide(4)}, Wide: true},
		// Replacement-race regressions distilled from fuzzer-found
		// divergences (see the program comments above for the bug each
		// one originally caught).
		{Config: Config{Name: "sci-p4-storm", NewEngine: func() coherent.Engine { return list.NewSCI() }, Procs: 4, Blocks: 2, Program: progStorm(), MaxStates: 2_000_000}, Wide: true},
		{Config: Config{Name: "sci-p4-conflict-storm", NewEngine: func() coherent.Engine { return list.NewSCI() }, Procs: 4, Blocks: 2, Program: progConflictStorm(), MaxStates: 2_000_000}, Wide: true},
		{Config: Config{Name: "sci-p4-dirty-evict", NewEngine: func() coherent.Engine { return list.NewSCI() }, Procs: 4, Blocks: 2, Program: progDirtyEvict(), MaxStates: 2_000_000}, Wide: true},
		{Config: Config{Name: "sci-p4-purge-replace", NewEngine: func() coherent.Engine { return list.NewSCI() }, Procs: 4, Blocks: 2, Program: progPurgeReplace(), MaxStates: 2_000_000}, Wide: true},
		{Config: Config{Name: "stp-p4-dirty-evict", NewEngine: func() coherent.Engine { return core.NewSTP() }, Procs: 4, Blocks: 2, Program: progDirtyEvict(), MaxStates: 2_000_000}, Wide: true},
		{Config: Config{Name: "stp-p4-write-reread", NewEngine: func() coherent.Engine { return core.NewSTP() }, Procs: 4, Blocks: 2, Program: progWriteReread(), MaxStates: 8_000_000}, Wide: true},
		{Config: Config{Name: "sci-p4-write-reread", NewEngine: func() coherent.Engine { return list.NewSCI() }, Procs: 4, Blocks: 2, Program: progWriteReread(), MaxStates: 8_000_000}, Wide: true},
	}
}
