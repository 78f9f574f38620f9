package apps

import (
	"fmt"

	"dircc/internal/coherent"
	"dircc/internal/proc"
)

// MissCounts is the result of one Table 1 measurement: the number of
// protocol messages consumed by a cold read miss and by a write miss
// that must invalidate a given number of sharers.
type MissCounts struct {
	// Protocol is the engine name.
	Protocol string
	// Sharers is P, the number of caches holding the block when the
	// write miss is issued.
	Sharers int
	// ReadMiss is the message count of a cold read miss.
	ReadMiss uint64
	// WriteMiss is the message count of the write miss, including the
	// request and the grant.
	WriteMiss uint64
	// InvLatency is the elapsed cycles of the write miss (issue to
	// completion), the paper's invalidation-latency comparison.
	InvLatency uint64
}

// MeasureMisses runs the sharing microbenchmark behind the paper's
// Table 1 on a machine with the given engine: one processor takes a
// cold read miss; then `sharers` processors share a second block and a
// non-sharer writes it. Requires sharers < procs.
func MeasureMisses(eng coherent.Engine, procs, sharers int) (MissCounts, error) {
	if sharers >= procs {
		return MissCounts{}, fmt.Errorf("apps: need sharers (%d) < procs (%d) so the writer is a non-sharer", sharers, procs)
	}
	cfg := coherent.DefaultConfig(procs)
	cfg.Check = true
	cfg.MaxEvents = 20_000_000
	m, err := coherent.NewMachine(cfg, eng)
	if err != nil {
		return MissCounts{}, err
	}
	a := m.Alloc(8)
	b := m.Alloc(8)
	res := MissCounts{Protocol: eng.Name(), Sharers: sharers}

	var beforeRead, afterRead, beforeWrite, afterWrite uint64
	var wStart, wEnd uint64
	_, err = proc.Run(m, func(e proc.Env) {
		// Warm block a with one existing sharer so the measured read
		// miss exercises the protocol's steady-state path (the list
		// protocols forward through the head; Table 1 assumes a
		// non-empty sharing set).
		if e.ID() == 1 {
			e.Read(a)
		}
		e.Barrier()
		if e.ID() == 0 {
			beforeRead = m.Ctr.Messages
			e.Read(a)
			afterRead = m.Ctr.Messages
		}
		e.Barrier()
		// Build up the sharing set one at a time.
		for turn := 0; turn < sharers; turn++ {
			if turn == e.ID() {
				e.Read(b)
			}
			e.Barrier()
		}
		if e.ID() == e.NProcs()-1 {
			beforeWrite = m.Ctr.Messages
			wStart = uint64(e.Now())
			e.Write(b, 42)
			wEnd = uint64(e.Now())
			afterWrite = m.Ctr.Messages
		}
		e.Barrier()
	})
	if err != nil {
		return MissCounts{}, err
	}
	res.ReadMiss = afterRead - beforeRead
	res.WriteMiss = afterWrite - beforeWrite
	res.InvLatency = wEnd - wStart
	return res, nil
}
