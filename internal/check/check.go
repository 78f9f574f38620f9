// Package check is an exhaustive state-space model checker for the
// protocol engines. It drives a real coherent.Machine — the same code
// the simulator runs — through every interleaving of a small concurrent
// program's operations and of the protocol messages they generate, and
// asserts the machine's coherence invariants on every reachable state
// (coherent.Machine.CheckDrained) and its quiescence contract on every
// terminal one (coherent.Machine.CheckQuiescent).
//
// Nondeterminism is confined to two sources: which processor issues its
// next program operation, and which in-flight message is delivered
// next. The machine's transport is intercepted (Machine.SetSendHook) so
// the checker owns the set of undelivered messages; between choices the
// event kernel is drained to quiescence. This is a sound partial-order
// reduction for this machine model: nodes interact only through
// messages and the home gates, so every behavior of the timed simulator
// is a prefix-equivalent reordering of some drained interleaving (see
// DESIGN.md, "Verification").
//
// States are deduplicated by 128 bits of the SHA-256 of a canonical
// text that excludes simulated time (coherent.Machine.CanonState plus
// the program counters and in-flight channels). Exploration is
// breadth-first over replayed paths, so the first violation found comes
// with a minimal message-interleaving witness. A run owns one machine:
// before every transition it is reset with a fresh engine
// (coherent.Machine.Reset) and the path is replayed from the initial
// state, so no live machine state is ever copied or carried from one
// path to another.
package check

import (
	"fmt"
	"strings"

	"dircc/internal/coherent"
	"dircc/internal/obs"
)

// OpKind is the kind of one program operation.
type OpKind uint8

const (
	// OpRead is a shared-memory load.
	OpRead OpKind = iota
	// OpWrite is a shared-memory store.
	OpWrite
	// OpReplace forces the node to replace its cached copy, as if the
	// frame were reclaimed by a conflicting miss (silent replacement,
	// Replace_INV, writeback — whatever the engine does on eviction).
	OpReplace
)

// Op is one operation of the concurrent program driving the machine.
type Op struct {
	Kind  OpKind
	Block coherent.BlockID
	// Value is the datum stored by an OpWrite. Distinct values across
	// the program make the data-coherence checks discriminating.
	Value uint64
}

func (o Op) String() string {
	switch o.Kind {
	case OpRead:
		return fmt.Sprintf("read b%d", o.Block)
	case OpWrite:
		return fmt.Sprintf("write b%d := %d", o.Block, o.Value)
	case OpReplace:
		return fmt.Sprintf("replace b%d", o.Block)
	}
	return fmt.Sprintf("op(%d)", o.Kind)
}

// Config describes one model-checking run: an engine factory, a tiny
// machine, and a concurrent program (one operation sequence per node,
// executed in program order; operations of different nodes interleave
// freely).
type Config struct {
	// Name labels the run in results and witness files.
	Name string
	// NewEngine builds a fresh protocol engine. It is called once per
	// replay, so it must return an engine with no shared state.
	NewEngine func() coherent.Engine
	// Procs is the number of nodes (the paper's P; keep it in 2..4).
	Procs int
	// Blocks is the number of shared blocks the program touches.
	Blocks int
	// CacheLines is the per-node cache capacity in lines; 0 means 1.
	// One-line caches make conflicting blocks exercise replacement.
	CacheLines int
	// Program holds each node's operation sequence. Nodes beyond
	// len(Program) issue nothing.
	Program [][]Op
	// MaxStates aborts the run when the visited set exceeds it
	// (0 = 500000). Hitting the cap is an error, not a violation.
	MaxStates int
	// DrainBudget bounds the kernel events of one replayed path
	// (0 = 1 << 20). Exhausting it is reported as a livelock violation.
	DrainBudget uint64
	// LaneAudit turns on the lane-partition abstraction: around every
	// explored step the replayer additionally asserts that a node's
	// cache-resident state changed only if that node's lane executed a
	// sanctioned event during the step (a scheduled node event, a
	// message delivery, or a global op). This is the sharded kernel's
	// ownership contract made observable on the sequential machine —
	// an engine that reaches across lanes inline behaves identically
	// sequentially and only diverges under the parallel kernel, so no
	// state invariant can catch it; the audit can. The dynamic
	// counterpart of the laneguard static analyzer.
	LaneAudit bool
}

func (c *Config) setDefaults() error {
	if c.NewEngine == nil {
		return fmt.Errorf("check: %s: NewEngine is nil", c.Name)
	}
	if c.Procs < 2 {
		return fmt.Errorf("check: %s: need at least 2 procs, got %d", c.Name, c.Procs)
	}
	if c.Blocks < 1 {
		return fmt.Errorf("check: %s: need at least 1 block, got %d", c.Name, c.Blocks)
	}
	if c.CacheLines == 0 {
		c.CacheLines = 1
	}
	if c.MaxStates == 0 {
		c.MaxStates = 500000
	}
	if c.DrainBudget == 0 {
		c.DrainBudget = 1 << 20
	}
	if len(c.Program) > c.Procs {
		return fmt.Errorf("check: %s: program has %d node sequences for %d procs", c.Name, len(c.Program), c.Procs)
	}
	for _, ops := range c.Program {
		for _, op := range ops {
			if int(op.Block) >= c.Blocks {
				return fmt.Errorf("check: %s: op %s outside the %d-block range", c.Name, op, c.Blocks)
			}
		}
	}
	return nil
}

// choice is one nondeterministic step: either node issue >= 0 issues
// its next program operation, or the pool message at index deliver is
// delivered. Every frontier entry holds its path of choices, so the
// fields are kept to 32 bits: that halves the queue's memory.
type choice struct {
	issue   int32
	deliver int32
}

// Stats summarizes one exhaustive run.
type Stats struct {
	// States is the number of distinct canonical states reached.
	States int
	// Transitions is the number of state transitions explored.
	Transitions int
	// Terminals is the number of quiescent end states.
	Terminals int
	// MaxDepth is the longest explored path, in choices.
	MaxDepth int
}

// Violation is an invariant failure together with its minimal witness.
type Violation struct {
	// Config is the run's name.
	Config string
	// Err describes the violated invariant.
	Err string
	// Steps is the human-readable witness: the shortest sequence of
	// issue/deliver choices reaching the violation.
	Steps []string
	// Trace holds the protocol events of the witness replay in the
	// observability layer's format (write with Trace.WriteJSONL).
	Trace *obs.Trace
}

func (v *Violation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\nwitness (%d steps):\n", v.Config, v.Err, len(v.Steps))
	for i, s := range v.Steps {
		fmt.Fprintf(&sb, "  %2d. %s\n", i+1, s)
	}
	return sb.String()
}

// queued is one frontier entry: the choice path that reaches a state
// from the initial one, and what the replay that discovered the state
// found there — its enabled choices and, when it has none, its
// terminal verdict — so that expanding the entry needs no replay of
// its own.
type queued struct {
	path     []choice
	choices  []choice
	terminal error
}

// Run explores every reachable state of cfg and returns the first
// invariant violation found (on the shortest path that exhibits one),
// or nil with the exploration stats if the full space is clean. The
// error return reports infrastructure problems — bad config, state cap
// exceeded — not protocol violations.
//
// One machine serves the whole run. Every transition resets it with a
// fresh engine, replays the parent state's path and applies one
// choice; the replay that reaches a new state also lists its choices,
// so each transition costs exactly one replay.
func Run(cfg Config) (Stats, *Violation, error) {
	if err := cfg.setDefaults(); err != nil {
		return Stats{}, nil, err
	}
	var st Stats

	// The initial state: empty caches, nothing in flight.
	r, err := newReplayer(&cfg)
	if err != nil {
		return st, nil, err
	}
	if verr := r.checkInvariants(); verr != nil {
		return st, makeWitness(&cfg, nil, verr), nil
	}
	visited := map[stateKey]struct{}{r.hash(): {}}
	st.States = 1

	queue := []queued{r.entry(nil)}
	for len(queue) > 0 {
		cur := queue[0]
		queue[0] = queued{}
		queue = queue[1:]
		if d := len(cur.path); d > st.MaxDepth {
			st.MaxDepth = d
		}
		if len(cur.choices) == 0 {
			st.Terminals++
			if cur.terminal != nil {
				return st, makeWitness(&cfg, cur.path, cur.terminal), nil
			}
			continue
		}
		for _, c := range cur.choices {
			if err := r.replay(cur.path); err != nil {
				return st, nil, err
			}
			st.Transitions++
			verr := r.applyChecked(c)
			if verr == nil {
				verr = r.checkInvariants()
			}
			if verr != nil {
				return st, makeWitness(&cfg, extend(cur.path, c), verr), nil
			}
			h := r.hash()
			if _, seen := visited[h]; seen {
				continue
			}
			if len(visited) >= cfg.MaxStates {
				return st, nil, fmt.Errorf("check: %s: state space exceeds the %d-state cap", cfg.Name, cfg.MaxStates)
			}
			visited[h] = struct{}{}
			st.States++
			queue = append(queue, r.entry(extend(cur.path, c)))
		}
	}
	return st, nil, nil
}

// extend returns path followed by c. The three-index slice makes append
// copy: paths share no backing array.
func extend(path []choice, c choice) []choice {
	return append(path[:len(path):len(path)], c)
}

// makeWitness replays path one final time, on a machine of its own
// with the observability trace attached, recording a human-readable
// description of every step.
func makeWitness(cfg *Config, path []choice, verr error) *Violation {
	v := &Violation{Config: cfg.Name, Err: verr.Error()}
	r, err := newReplayer(cfg)
	if err != nil {
		v.Steps = []string{fmt.Sprintf("(witness replay failed: %v)", err)}
		return v
	}
	tr := obs.NewTrace()
	r.m.AttachProbe(&obs.Probe{Trace: tr})
	for _, c := range path {
		v.Steps = append(v.Steps, r.describe(c))
		if stepErr := r.applyChecked(c); stepErr != nil {
			break // the final step may fault; the state is discarded
		}
	}
	v.Trace = tr
	return v
}
