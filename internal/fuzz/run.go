package fuzz

import (
	"errors"
	"fmt"

	"dircc/internal/coherent"
	"dircc/internal/obs"
	"dircc/internal/sim"
)

// Result is one engine's execution of a workload: everything the
// differential oracle compares, plus the per-engine failure (invariant
// violation, deadlock, livelock, panic) if the run did not survive.
type Result struct {
	Engine string
	// Mem is the final memory image of blocks [0, Blocks).
	Mem []uint64
	// ReadDigest folds every read value observed during read-only
	// phases, per node in program order, nodes in id order.
	ReadDigest uint64
	// Cycles is the simulated completion time (not compared — timing
	// is exactly what protocols are allowed to change).
	Cycles uint64
	// Err is the per-engine failure, nil for a clean run.
	Err error
}

// RunWorkload executes w on a fresh machine driven by eng's engine and
// asserts the quiescence contract (coherent.Machine.CheckQuiescent) at
// every phase boundary. It never panics: engine bugs surface in
// Result.Err.
func RunWorkload(w *Workload, eng NamedEngine) *Result {
	return runWorkload(w, eng, nil)
}

// RunWorkloadSharded executes w on the time-windowed parallel kernel
// with the given shard count (and the runtime coherence monitor off —
// the checker's transport requires the sequential engine). Its Mem and
// ReadDigest must match RunWorkloadUnchecked on the same workload:
// that differential is the fuzz-level determinism oracle for the
// sharded engine.
func RunWorkloadSharded(w *Workload, eng NamedEngine, shards int) *Result {
	return runWorkloadOn(w, eng, nil, shards, false)
}

// RunWorkloadUnchecked is RunWorkload without the runtime coherence
// monitor — the sequential baseline RunWorkloadSharded results are
// compared against.
func RunWorkloadUnchecked(w *Workload, eng NamedEngine) *Result {
	return runWorkloadOn(w, eng, nil, 1, false)
}

// TraceWitness re-executes w on eng with the observability trace
// attached and returns the recorded protocol events — the same witness
// format the model checker emits (write with Trace.WriteJSONL).
func TraceWitness(w *Workload, eng NamedEngine) *obs.Trace {
	tr := obs.NewTrace()
	runWorkload(w, eng, &obs.Probe{Trace: tr})
	return tr
}

func runWorkload(w *Workload, eng NamedEngine, probe *obs.Probe) *Result {
	return runWorkloadOn(w, eng, probe, 1, true)
}

func runWorkloadOn(w *Workload, eng NamedEngine, probe *obs.Probe, shards int, checked bool) *Result {
	res := &Result{Engine: eng.Name}
	cfg := coherent.DefaultConfig(w.Procs)
	cfg.Check = checked
	cfg.MaxEvents = 50_000_000
	if w.CacheLines > 0 {
		cfg.CacheBytes = cfg.BlockBytes * w.CacheLines
		cfg.CacheSets = 1
	}
	m, err := coherent.NewShardedMachine(cfg, eng.New(), shards)
	if err != nil {
		res.Err = err
		return res
	}
	// Workloads address blocks directly rather than through Alloc; the
	// sharded kernel freezes the store at the allocation frontier, so
	// claim the workload's whole footprint up front. (Alloc is pure
	// bookkeeping — this cannot perturb the sequential baseline.)
	m.Alloc(uint64(w.Blocks) * uint64(cfg.BlockBytes))
	if probe != nil {
		m.AttachProbe(probe)
	}
	digests := make([]uint64, w.Procs)
	for pi, ph := range w.Phases {
		if err := runPhase(m, w, ph, digests); err != nil {
			res.Err = fmt.Errorf("phase %d: %w", pi, err)
			return res
		}
		if err := m.CheckQuiescent(w.Blocks); err != nil {
			res.Err = fmt.Errorf("phase %d quiescence: %w", pi, err)
			return res
		}
	}
	res.Mem = make([]uint64, w.Blocks)
	for b := 0; b < w.Blocks; b++ {
		res.Mem[b] = m.Store.Value(coherent.BlockID(b))
	}
	for _, d := range digests {
		res.ReadDigest = res.ReadDigest*1099511628211 + d
	}
	res.Cycles = uint64(m.Now())
	return res
}

// runPhase launches one operation chain per participating node — each
// node issues its next op when the previous completes, so the chains
// race freely through the timed network — and drains the kernel to the
// phase's quiescence point. Panics from a broken engine and kernel
// event-budget exhaustion (livelock) become errors.
func runPhase(m *coherent.Machine, w *Workload, ph Phase, digests []uint64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	perNode := make([][]Op, w.Procs)
	for _, op := range ph.Ops {
		perNode[op.Node] = append(perNode[op.Node], op)
	}
	addr := func(b coherent.BlockID) uint64 { return uint64(b) * uint64(m.Cfg.BlockBytes) }
	for n := range perNode {
		ops := perNode[n]
		if len(ops) == 0 {
			continue
		}
		node := coherent.NodeID(n)
		n := n
		var step func(i int)
		step = func(i int) {
			if i == len(ops) {
				return
			}
			op := ops[i]
			switch op.Kind {
			case OpRead:
				m.Access(node, addr(op.Block), false, 0, func(v uint64) {
					if ph.ReadOnly {
						digests[n] = digests[n]*31 + v
					}
					step(i + 1)
				})
			case OpWrite:
				m.Access(node, addr(op.Block), true, op.Value, func(uint64) { step(i + 1) })
			case OpReplace:
				m.ReplaceBlock(node, op.Block)
				// One-cycle yield: keeps the teardown racing the rest of
				// the phase instead of recursing synchronously.
				m.ScheduleAt(node, 1, func() { step(i + 1) })
			}
		}
		m.ScheduleAt(node, 0, func() { step(0) })
	}
	err = m.RunKernel()
	if errors.Is(err, sim.ErrEventBudget) {
		return fmt.Errorf("livelock: %d kernel events without quiescing", m.Cfg.MaxEvents)
	}
	return err
}
