package dircc

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// ResultOrErr pairs RunExperiment's two return values so a batch can
// report per-experiment failures without abandoning the rest of the
// grid.
type ResultOrErr struct {
	Result *Result
	Err    error
	// Elapsed is the wall-clock time the experiment took to simulate
	// (zero for experiments that never ran because ctx was cancelled).
	// It is host timing, not simulated time, and exists for progress
	// reporting; nothing deterministic may depend on it.
	Elapsed time.Duration
}

// RunExperiments executes a batch of experiments on a worker pool and
// returns their outcomes in input order, regardless of completion
// order. parallelism <= 0 selects runtime.NumCPU().
//
// Every experiment owns a private engine, machine, and workload
// instance, and the simulation kernel never shares mutable state across
// engines, so each Result — cycle counts included — is bit-for-bit
// identical to what a sequential RunExperiment would produce (the
// determinism regression test in runner_test.go holds this invariant).
//
// Cancelling ctx stops dispatching new experiments; entries that never
// ran carry ctx's error. Experiments already in flight run to
// completion (the kernel has no preemption points).
func RunExperiments(ctx context.Context, exps []Experiment, parallelism int) []ResultOrErr {
	return RunExperimentsLive(ctx, exps, parallelism, nil, nil)
}

// RunExperimentsLive is RunExperiments with dispatch and completion
// callbacks: onStart (when non-nil) runs as each experiment is picked
// up by a worker, before it simulates, and onDone (when non-nil) once
// per experiment as it finishes, with the grid index and the outcome.
// Callbacks are serialized under one mutex (no locking needed inside)
// but run from worker goroutines in nondeterministic dispatch and
// completion order — use them for progress display and telemetry, not
// for anything the results depend on.
func RunExperimentsLive(ctx context.Context, exps []Experiment, parallelism int, onStart func(i int), onDone func(i int, r ResultOrErr)) []ResultOrErr {
	if ctx == nil {
		ctx = context.Background()
	}
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	if parallelism > len(exps) {
		parallelism = len(exps)
	}
	out := make([]ResultOrErr, len(exps))
	if len(exps) == 0 {
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if onStart != nil {
					mu.Lock()
					onStart(i)
					mu.Unlock()
				}
				if err := ctx.Err(); err != nil {
					out[i].Err = err
				} else {
					start := time.Now() //dirccvet:allow simdet Elapsed is host-side progress timing; nothing deterministic depends on it
					r, err := RunExperiment(exps[i])
					out[i] = ResultOrErr{Result: r, Err: err, Elapsed: time.Since(start)} //dirccvet:allow simdet same wall-clock Elapsed measurement
				}
				if onDone != nil {
					mu.Lock()
					onDone(i, out[i])
					mu.Unlock()
				}
			}
		}()
	}
	for i := range exps {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
