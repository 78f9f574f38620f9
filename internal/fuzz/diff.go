package fuzz

import (
	"fmt"

	"dircc/internal/coherent"
	"dircc/internal/core"
	"dircc/internal/protocol/fullmap"
	"dircc/internal/protocol/limited"
	"dircc/internal/protocol/list"
)

// NamedEngine is one differential participant. The slice order is
// semantic: the first entry is the oracle every other engine is
// compared against (full-map, whose directory is exact, in the
// default sets).
type NamedEngine struct {
	Name string
	New  func() coherent.Engine
}

// AllEngines returns the six-scheme differential set, full-map first
// as the oracle: then Dir2B and LimitLESS4 (two overflow policies of
// the one limited engine), SCI, and STP and Dir4Tree2 (the two tree
// engines of internal/core, which share one invalidation wave and
// teardown).
func AllEngines() []NamedEngine {
	return []NamedEngine{
		{"fm", func() coherent.Engine { return fullmap.New() }},
		{"Dir2B", func() coherent.Engine { return limited.NewB(2) }},
		{"LimitLESS4", func() coherent.Engine { return limited.NewLimitLESS(4) }},
		{"sci", func() coherent.Engine { return list.NewSCI() }},
		{"stp", func() coherent.Engine { return core.NewSTP() }},
		{"Dir4Tree2", func() coherent.Engine { return core.New(4, 2) }},
	}
}

// ChainEngines returns the chain-surgery set: the oracle plus every
// scheme whose sharing structure is a linked chain or tree — the ones
// concurrent mid-chain eviction, re-attach and invalidation surgery
// can structurally corrupt.
func ChainEngines() []NamedEngine {
	return []NamedEngine{
		{"fm", func() coherent.Engine { return fullmap.New() }},
		{"sci", func() coherent.Engine { return list.NewSCI() }},
		{"sll", func() coherent.Engine { return list.NewSLL() }},
		{"stp", func() coherent.Engine { return core.NewSTP() }},
		{"Dir4Tree2", func() coherent.Engine { return core.New(4, 2) }},
	}
}

// TreeEngines returns the Dir_iTree_k-focused set: the oracle plus the
// tree scheme across pointer counts and arities (the configurations
// whose deep-tree behaviors live beyond the model checker's horizon).
func TreeEngines() []NamedEngine {
	return []NamedEngine{
		{"fm", func() coherent.Engine { return fullmap.New() }},
		{"Dir1Tree2", func() coherent.Engine { return core.New(1, 2) }},
		{"Dir2Tree2", func() coherent.Engine { return core.New(2, 2) }},
		{"Dir2Tree3", func() coherent.Engine { return core.New(2, 3) }},
		{"Dir4Tree4", func() coherent.Engine { return core.New(4, 4) }},
	}
}

// Divergence kinds.
const (
	// KindError: an engine failed outright — invariant violation at a
	// quiescence point, deadlock, livelock, or a panic.
	KindError = "error"
	// KindMem: final memory images differ from the oracle's.
	KindMem = "mem"
	// KindReadDigest: read-only-phase read values differ.
	KindReadDigest = "read-digest"
)

// Divergence is one differential failure: the workload, which engine
// broke ranks, and how.
type Divergence struct {
	Workload *Workload
	// Engine is the diverging engine's name; Oracle the reference.
	Engine, Oracle string
	// Kind is one of KindError, KindMem, KindReadDigest.
	Kind string
	// Detail is the human-readable specifics.
	Detail string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("fuzz: workload %s (seed %#x): engine %s vs oracle %s: %s: %s",
		d.Workload.Name, d.Workload.Seed, d.Engine, d.Oracle, d.Kind, d.Detail)
}

// RunDifferential executes w under every engine and compares each
// result against the first (oracle) entry. It returns the first
// divergence in engine order — deterministically — or nil when every
// engine agrees; the error return is for unusable inputs, not protocol
// bugs.
func RunDifferential(w *Workload, engines []NamedEngine) (*Divergence, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if len(engines) < 2 {
		return nil, fmt.Errorf("fuzz: differential run needs at least 2 engines, got %d", len(engines))
	}
	oracle := RunWorkload(w, engines[0])
	if oracle.Err != nil {
		return &Divergence{Workload: w, Engine: engines[0].Name, Oracle: engines[0].Name,
			Kind: KindError, Detail: oracle.Err.Error()}, nil
	}
	for _, eng := range engines[1:] {
		got := RunWorkload(w, eng)
		if d := compare(w, oracle, got); d != nil {
			return d, nil
		}
	}
	return nil, nil
}

// compare diffs one engine's result against the oracle's.
func compare(w *Workload, oracle, got *Result) *Divergence {
	d := &Divergence{Workload: w, Engine: got.Engine, Oracle: oracle.Engine}
	if got.Err != nil {
		d.Kind, d.Detail = KindError, got.Err.Error()
		return d
	}
	for b := range oracle.Mem {
		if got.Mem[b] != oracle.Mem[b] {
			d.Kind = KindMem
			d.Detail = fmt.Sprintf("final memory block %d = %#x, oracle has %#x", b, got.Mem[b], oracle.Mem[b])
			return d
		}
	}
	if got.ReadDigest != oracle.ReadDigest {
		d.Kind = KindReadDigest
		d.Detail = fmt.Sprintf("read-only-phase digest %#x, oracle has %#x", got.ReadDigest, oracle.ReadDigest)
		return d
	}
	return nil
}
