// Package fuzz is the randomized differential stress harness: a
// seed-deterministic complement to the exhaustive model checker
// (internal/check). The checker proves every interleaving correct up to
// P=4 and two blocks; the fuzzer hunts interleaving bugs at P∈{8..64},
// where the tree protocols' deep fan-out, replacement-driven subtree
// teardown and even→odd root-ack forwarding actually operate.
//
// A Workload is a phase-structured concurrent program: within a phase
// the per-node operation chains race freely through the timed
// simulator; phases are separated by global quiescence points, where
// the harness drains the machine and asserts its quiescence contract
// (coherent.Machine.CheckQuiescent: SWMR, value agreement, directory
// coverage closure, tree shape, staleness, deadlock), the one the
// model checker asserts on its terminal states.
//
// Phase structure is what makes the differential oracle sound. Read
// values and message timings legitimately differ across protocols, so
// the harness only compares what protocol choice must never change:
//
//   - the final memory image — every write of a given (phase, block)
//     pair stores the same value, so racing writers commute and the
//     drained image is protocol-independent;
//   - read values from read-only phases, where the quiesced image is
//     the only legal source;
//   - the per-engine invariants at every quiescence point.
//
// Everything is a pure function of a uint64 seed: generation,
// execution, divergence detection and witness shrinking are all
// deterministic, so any failure reproduces from its seed alone.
package fuzz

import (
	"fmt"
	"strings"

	"dircc/internal/coherent"
)

// OpKind is the kind of one workload operation.
type OpKind uint8

const (
	// OpRead is a shared-memory load.
	OpRead OpKind = iota
	// OpWrite is a shared-memory store.
	OpWrite
	// OpReplace forces the node to replace its cached copy, as if the
	// frame were reclaimed by a conflicting miss (Replace_INV subtree
	// teardown in the tree schemes).
	OpReplace
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReplace:
		return "replace"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one operation of a workload phase. Ops with the same Node run
// in slice order (program order); ops of different nodes race.
type Op struct {
	Node  int
	Kind  OpKind
	Block coherent.BlockID
	// Value is the datum stored by an OpWrite. Generators derive it
	// from (seed, phase, block) only — never from the writing node —
	// so racing same-block writers stay idempotent and the final
	// memory image is comparable across engines.
	Value uint64
}

func (o Op) String() string {
	switch o.Kind {
	case OpWrite:
		return fmt.Sprintf("n%d write b%d := %#x", o.Node, o.Block, o.Value)
	default:
		return fmt.Sprintf("n%d %s b%d", o.Node, o.Kind, o.Block)
	}
}

// Phase is one synchronization epoch of a workload.
type Phase struct {
	Ops []Op
	// ReadOnly marks a phase containing no writes: every read is then
	// deterministic (it can only observe the quiesced image), and its
	// value is folded into the cross-engine read digest.
	ReadOnly bool
}

// Workload is one generated concurrent program.
type Workload struct {
	// Name records the generator (and parameters) that produced it.
	Name string
	// Seed is the generation seed, for reproduction.
	Seed uint64
	// Procs is the machine size.
	Procs int
	// Blocks is the number of shared blocks touched.
	Blocks int
	// CacheLines, when positive, shrinks the per-node cache to that
	// many lines (the replacement-storm configuration); 0 keeps the
	// default 16 KB cache.
	CacheLines int
	Phases     []Phase
}

// OpCount returns the total number of operations across all phases.
func (w *Workload) OpCount() int {
	n := 0
	for _, ph := range w.Phases {
		n += len(ph.Ops)
	}
	return n
}

// Canon renders the workload in a canonical text form. Shrinking
// determinism is asserted on this rendering: two minimizations of the
// same divergence must produce byte-identical canon strings.
func (w *Workload) Canon() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workload %s seed=%#x procs=%d blocks=%d cachelines=%d\n",
		w.Name, w.Seed, w.Procs, w.Blocks, w.CacheLines)
	for i, ph := range w.Phases {
		ro := ""
		if ph.ReadOnly {
			ro = " read-only"
		}
		fmt.Fprintf(&sb, "phase %d%s\n", i, ro)
		for _, op := range ph.Ops {
			fmt.Fprintf(&sb, "  %s\n", op)
		}
	}
	return sb.String()
}

// validate rejects workloads the runner cannot execute.
func (w *Workload) validate() error {
	if w.Procs < 2 {
		return fmt.Errorf("fuzz: workload %s needs at least 2 procs, got %d", w.Name, w.Procs)
	}
	if w.Blocks < 1 {
		return fmt.Errorf("fuzz: workload %s needs at least 1 block, got %d", w.Name, w.Blocks)
	}
	if w.CacheLines < 0 {
		return fmt.Errorf("fuzz: workload %s has negative cache size", w.Name)
	}
	for pi, ph := range w.Phases {
		for _, op := range ph.Ops {
			if op.Node < 0 || op.Node >= w.Procs {
				return fmt.Errorf("fuzz: workload %s phase %d: op %s outside the %d-proc range", w.Name, pi, op, w.Procs)
			}
			if int(op.Block) >= w.Blocks {
				return fmt.Errorf("fuzz: workload %s phase %d: op %s outside the %d-block range", w.Name, pi, op, w.Blocks)
			}
			if ph.ReadOnly && op.Kind == OpWrite {
				return fmt.Errorf("fuzz: workload %s phase %d marked read-only but contains %s", w.Name, pi, op)
			}
		}
	}
	return nil
}
