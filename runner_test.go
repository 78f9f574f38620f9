package dircc

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestRunExperimentsDeterministic is the regression gate for the
// parallel runner: a grid of 2 apps x 3 schemes x 2 machine sizes run
// on a worker pool must produce byte-identical Cycles and statistics
// counters to the same grid run sequentially. Every experiment owns its
// engine, machine and workload, so parallelism must not perturb a
// single simulated event.
func TestRunExperimentsDeterministic(t *testing.T) {
	var exps []Experiment
	for _, app := range []string{"lu", "fft"} {
		for _, scheme := range []string{"fm", "L4", "T4"} {
			for _, procs := range []int{8, 16} {
				exps = append(exps, Experiment{App: app, Protocol: scheme, Procs: procs})
			}
		}
	}

	parallel := RunExperiments(context.Background(), exps, 4)

	for i, exp := range exps {
		if parallel[i].Err != nil {
			t.Fatalf("%s/%s/%d: %v", exp.App, exp.Protocol, exp.Procs, parallel[i].Err)
		}
		seq, err := RunExperiment(exp)
		if err != nil {
			t.Fatalf("sequential %s/%s/%d: %v", exp.App, exp.Protocol, exp.Procs, err)
		}
		got := parallel[i].Result
		if got.Experiment != exp {
			t.Fatalf("result %d is for %+v, want %+v (input order not preserved)", i, got.Experiment, exp)
		}
		if got.Cycles != seq.Cycles {
			t.Errorf("%s/%s/%d: parallel cycles %d != sequential %d",
				exp.App, exp.Protocol, exp.Procs, got.Cycles, seq.Cycles)
		}
		if !reflect.DeepEqual(got.Counters, seq.Counters) {
			t.Errorf("%s/%s/%d: parallel counters diverge from sequential",
				exp.App, exp.Protocol, exp.Procs)
		}
	}
}

// recordDone returns an onDone callback for RunExperimentsLive and a
// check that the callback ran exactly once per experiment, with the
// outcome the runner returned for it. The callback logs into plain,
// unsynchronized state: only the runner's serialization orders its
// calls (see TestRunExperimentsCancelledContext).
func recordDone(t *testing.T) (onDone func(int, ResultOrErr), check func([]ResultOrErr)) {
	calls := 0
	seen := map[int][]ResultOrErr{}
	onDone = func(i int, r ResultOrErr) {
		calls++
		seen[i] = append(seen[i], r)
	}
	check = func(out []ResultOrErr) {
		t.Helper()
		if calls != len(out) {
			t.Errorf("onDone ran %d times for %d experiments", calls, len(out))
		}
		for i, want := range out {
			got := seen[i]
			if len(got) != 1 {
				t.Errorf("experiment %d: onDone ran %d times, want 1", i, len(got))
				continue
			}
			if got[0].Result != want.Result || !reflect.DeepEqual(got[0], want) {
				t.Errorf("experiment %d: onDone saw %+v, runner returned %+v", i, got[0], want)
			}
		}
	}
	return onDone, check
}

func TestRunExperimentsReportsPerExperimentErrors(t *testing.T) {
	exps := []Experiment{
		{App: "lu", Protocol: "fm", Procs: 8},
		{App: "no-such-app", Protocol: "fm", Procs: 8},
		{App: "lu", Protocol: "no-such-scheme", Procs: 8},
	}
	onDone, check := recordDone(t)
	out := RunExperimentsLive(context.Background(), exps, 2, onDone)
	check(out)
	if out[0].Err != nil || out[0].Result == nil {
		t.Errorf("healthy experiment failed: %v", out[0].Err)
	}
	if out[1].Err == nil {
		t.Error("unknown app did not error")
	}
	if out[2].Err == nil {
		t.Error("unknown scheme did not error")
	}
}

// TestRunExperimentsCancelledContext also guards the runner's
// callback serialization under -race. Cancelled entries skip the
// simulation, so at parallelism 2 the workers reach onDone back to
// back with nothing but the runner's lock between them. A run that
// simulates can synchronize inside RunExperiment, which hides a
// missing lock from -race.
func TestRunExperimentsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exps := make([]Experiment, 64)
	for i := range exps {
		exps[i] = Experiment{App: "lu", Protocol: "fm", Procs: 8}
	}
	onDone, check := recordDone(t)
	out := RunExperimentsLive(ctx, exps, 2, onDone)
	check(out)
	for i := range out {
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Errorf("experiment %d: err = %v, want context.Canceled", i, out[i].Err)
		}
	}
}

func TestRunExperimentsEmptyAndDefaults(t *testing.T) {
	if out := RunExperiments(context.Background(), nil, 0); len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
	// parallelism <= 0 must fall back to NumCPU, nil ctx to Background.
	out := RunExperiments(nil, []Experiment{{App: "lu", Protocol: "fm", Procs: 8}}, -1)
	if out[0].Err != nil {
		t.Errorf("defaulted run failed: %v", out[0].Err)
	}
}
