// Package apps contains the execution-driven workloads of the paper's
// evaluation: MP3D (3-D particle simulation), blocked LU decomposition,
// Floyd-Warshall all-pairs shortest paths, and a radix-2 FFT, plus the
// synthetic sharing microbenchmarks used for Table 1.
//
// Every application is real Go code computing real values through the
// simulated shared memory; after a run, Check verifies the parallel
// result against an independently computed serial reference, so the
// workloads double as end-to-end protocol correctness tests.
package apps

import (
	"fmt"
	"math"

	"dircc/internal/coherent"
	"dircc/internal/proc"
)

// App is one benchmark program.
type App interface {
	// Name is the workload's short name ("mp3d", "lu", ...).
	Name() string
	// Prepare allocates shared memory on m and returns the body every
	// processor runs plus a post-run result check.
	Prepare(m *coherent.Machine) (proc.Body, func() error)
}

// Array is a shared vector of 64-bit words.
type Array struct {
	base uint64
	n    int
}

// AllocArray reserves n words of shared memory.
func AllocArray(m *coherent.Machine, n int) Array {
	return Array{base: m.Alloc(uint64(n) * 8), n: n}
}

// Addr returns the byte address of word i.
func (a Array) Addr(i int) uint64 {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("apps: index %d out of range [0,%d)", i, a.n))
	}
	return a.base + uint64(i)*8
}

// Len returns the number of words.
func (a Array) Len() int { return a.n }

// Get reads word i through the simulated memory.
func (a Array) Get(e proc.Env, i int) uint64 { return e.Read(a.Addr(i)) }

// Set writes word i through the simulated memory.
func (a Array) Set(e proc.Env, i int, v uint64) { e.Write(a.Addr(i), v) }

// GetF and SetF move float64 values through the simulated memory.
func (a Array) GetF(e proc.Env, i int) float64 { return math.Float64frombits(a.Get(e, i)) }

// SetF writes a float64 as word i.
func (a Array) SetF(e proc.Env, i int, v float64) { a.Set(e, i, math.Float64bits(v)) }

// Final reads word i from the authoritative store after the run ends
// (for result checking).
func (a Array) Final(m *coherent.Machine, i int) uint64 {
	return m.Store.Value(m.BlockOf(a.Addr(i)))
}

// FinalF reads word i as a float64 after the run.
func (a Array) FinalF(m *coherent.Machine, i int) float64 {
	return math.Float64frombits(a.Final(m, i))
}

// chunk returns the half-open range [lo,hi) of items owned by processor
// id among n processors for total items (contiguous block partition).
func chunk(total, nprocs, id int) (lo, hi int) {
	per := total / nprocs
	rem := total % nprocs
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return
}

// approxEqual compares floats with a tolerance proportionate to scale.
func approxEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	return d <= tol*(1+math.Abs(a)+math.Abs(b))
}
