// Package dircc is a production-quality reproduction of the hybrid
// tree-based cache coherence protocol of Chang and Bhuyan, "An
// Efficient Hybrid Cache Coherence Protocol for Shared Memory
// Multiprocessors" (ICPP 1996).
//
// The package bundles an execution-driven multiprocessor simulator in
// the spirit of Proteus — a deterministic event kernel, a wormhole-
// routed binary n-cube interconnect, per-node caches and home
// directories — together with a family of directory cache coherence
// protocol engines:
//
//   - fm           — full-map directory (Dir_nNB), the baseline
//   - Dir_iNB      — limited directory, pointer eviction on overflow
//   - Dir_iB       — limited directory, broadcast on overflow
//   - LimitLESS_i  — software-extended limited directory (trap costs)
//   - Dir_iTree_k  — the paper's hybrid protocol (package internal/core)
//   - Dir_iTree_kU — its update-based variant (an extension; the paper
//     mentions update protocols but evaluates only invalidation)
//   - sll          — singly linked list (Stanford/Thapar)
//   - sci          — IEEE 1596 Scalable Coherent Interface (doubly
//     linked list)
//   - stp          — Scalable Tree Protocol (balanced binary tree)
//
// and the paper's four evaluation workloads (MP3D, LU, Floyd-Warshall,
// FFT) — plus a nearest-neighbor SOR grid — as real Go programs issuing
// loads and stores through the simulated shared memory, each verified
// against a serial reference after every run.
//
// Beyond the paper's setup, the machine offers trace record/replay and
// Weber-Gupta invalidation-pattern analysis (RecordTrace, ReplayTrace,
// internal/trace), atomic fetch-and-add serialized at the home
// (Env.FetchAdd), memory-based ticket locks (Config.MemLocks), a
// TSO-style store buffer (Config.WriteBuffer), alternative interconnects
// (Experiment.Topology) and home mappings (Config.HomePageBlocks) — all
// ablated in the bench suite.
//
// # Quick start
//
//	eng, _ := dircc.NewEngine("Dir4Tree2")
//	m, _ := dircc.NewMachine(dircc.DefaultConfig(16), eng)
//	addr := m.Alloc(8)
//	cycles, _ := dircc.RunBody(m, func(e dircc.Env) {
//	    if e.ID() == 0 {
//	        e.Write(addr, 42)
//	    }
//	    e.Barrier()
//	    _ = e.Read(addr)
//	})
//
// Higher-level experiment drivers reproduce each table and figure of
// the paper; see RunExperiment, RunExperiments (a worker pool over a
// grid), NormalizedTimes, and the cmd/ tools.
package dircc

import (
	"dircc/internal/coherent"
	"dircc/internal/proc"
	"dircc/internal/sim"
	"dircc/internal/stats"
)

// Env is the shared-memory programming interface simulated application
// code runs against: Read, Write, Compute, Barrier, Lock/Unlock.
type Env = proc.Env

// Machine is a simulated shared-memory multiprocessor: processors,
// caches, home directories and the interconnect.
type Machine = coherent.Machine

// Config describes the simulated machine (Table 5 of the paper).
type Config = coherent.Config

// Engine is a pluggable cache coherence protocol.
type Engine = coherent.Engine

// Counters aggregates the statistics of one run.
type Counters = stats.Counters

// Time is a simulated clock value in cycles.
type Time = sim.Time

// DefaultConfig returns the paper's Table 5 machine configuration for
// the given processor count: 16 KB fully-associative caches with
// 8-byte blocks, a binary n-cube with 8-bit links and 1-cycle switch
// delay, 5-cycle memory and 1-cycle cache access.
func DefaultConfig(procs int) Config { return coherent.DefaultConfig(procs) }

// NewMachine builds a simulated multiprocessor running the given
// protocol over a hypercube sized for cfg.Procs.
func NewMachine(cfg Config, engine Engine) (*Machine, error) {
	return coherent.NewMachine(cfg, engine)
}

// RunBody executes body on every processor of m (execution-driven, one
// coroutine per processor, deterministically scheduled) and returns the
// total simulated cycles.
func RunBody(m *Machine, body func(Env)) (Time, error) {
	return proc.Run(m, body)
}
