package dircc

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dircc/internal/coherent"
	"dircc/internal/kprof"
	"dircc/internal/proc"
)

// The sharded-determinism regressions pin the guarantee of the
// time-windowed parallel kernel (sim.Sharded), which only the
// benchmark, the fuzz oracle and these tests build: the sweep CSV — cycles, every counter, the normalized column — is
// byte-identical at every shard count, and byte-identical to the
// sequential engine (the committed golden fixture). The grid covers
// every engine family: the pointer schemes (fm, l4, b4, ll4), the tree
// (T4, via deferred subtree teardown), and the chain schemes (stp,
// sci, sll, via deferred splice/teardown hops).

// goldenGrid returns the experiment grid of testdata/sweep_golden.csv
// in fixture row order.
func goldenGrid() []Experiment {
	var exps []Experiment
	for _, app := range []string{"mp3d", "fft"} {
		for _, procs := range []int{8, 16} {
			for _, scheme := range []string{"fm", "l4", "b4", "ll4", "T4", "stp", "sci", "sll"} {
				exps = append(exps, Experiment{App: app, Protocol: scheme, Procs: procs})
			}
		}
	}
	return exps
}

// runSharded runs exp as RunExperiment does, but on a machine built
// with coherent.NewShardedMachine at the given shard count (1 builds
// the sequential kernel). prof, when non-nil, profiles the parallel
// kernel; it stays untouched at one shard.
func runSharded(exp Experiment, shards int, prof *kprof.Profile) (*Result, error) {
	eng, err := NewEngine(exp.Protocol)
	if err != nil {
		return nil, err
	}
	app, err := NewApp(exp.App, exp.Full)
	if err != nil {
		return nil, err
	}
	m, err := coherent.NewShardedMachine(exp.config(), eng, shards)
	if err != nil {
		return nil, err
	}
	if prof != nil {
		m.AttachKProf(prof)
	}
	body, check := app.Prepare(m)
	cycles, err := proc.Run(m, body)
	if err != nil {
		return nil, err
	}
	if err := check(); err != nil {
		return nil, err
	}
	return &Result{Experiment: exp, Cycles: uint64(cycles), Counters: m.Ctr}, nil
}

// sweepCSV runs the experiments in order with run and renders the
// sweep CSV exactly as cmd/sweep does, including the per-(app,procs)
// full-map normalization baseline.
func sweepCSV(t *testing.T, exps []Experiment, run func(Experiment) (*Result, error)) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(SweepCSVHeader())
	sb.WriteByte('\n')
	var baseline uint64
	for _, exp := range exps {
		r, err := run(exp)
		if err != nil {
			t.Fatalf("%s/%s/%d: %v", exp.App, exp.Protocol, exp.Procs, err)
		}
		if exp.Protocol == "fm" {
			baseline = r.Cycles
		}
		sb.WriteString(r.SweepCSVRow(float64(r.Cycles) / float64(baseline)))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func goldenCSV(t *testing.T) string {
	t.Helper()
	want, err := os.ReadFile("testdata/sweep_golden.csv")
	if err != nil {
		t.Fatalf("reading golden fixture: %v", err)
	}
	return string(want)
}

// TestSweepGolden pins the sequential engine's sweep CSV against the
// fixture recorded from the pre-PR engine: the parallel-simulation
// refactor must not move a single byte of sequential results.
func TestSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("28-experiment grid; skipped in -short")
	}
	diffCSV(t, goldenCSV(t), sweepCSV(t, goldenGrid(), RunExperiment), "sequential")
}

// TestShardedDeterministic pins the sweep CSV at S∈{1,2,4,8} against
// the same golden fixture, i.e. byte-identity with the sequential
// engine at every shard count. (S=1 selects the sequential kernel by
// construction; the S=1 wave-kernel identity is pinned at the kernel
// level in internal/sim.)
func TestShardedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("84-experiment grid; skipped in -short")
	}
	shardCounts := []int{1, 2, 4, 8}
	if raceEnabled {
		// The race detector multiplies run time ~10x; two shard counts
		// keep `make race` tractable while still exercising every
		// cross-lane surface.
		shardCounts = []int{2, 8}
	}
	for _, s := range shardCounts {
		got := sweepCSV(t, goldenGrid(), func(exp Experiment) (*Result, error) { return runSharded(exp, s, nil) })
		diffCSV(t, goldenCSV(t), got, fmt.Sprintf("shards=%d", s))
	}
}

func diffCSV(t *testing.T, want, got, label string) {
	t.Helper()
	if got == want {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range wl {
		if i >= len(gl) || wl[i] != gl[i] {
			t.Fatalf("%s sweep CSV diverges at line %d:\nwant: %s\ngot:  %s", label, i+1, wl[i], safeLine(gl, i))
		}
	}
	t.Fatalf("%s sweep CSV has %d extra lines", label, len(gl)-len(wl))
}

func safeLine(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}

// TestShardedLargeP is the large-machine smoke for the parallel
// kernel (wired into `make check`): a P=256 run on 8 shards must
// complete, produce the workload's correct numerical answer (checked
// inside runSharded), and match the sequential run byte-for-byte.
func TestShardedLargeP(t *testing.T) {
	if testing.Short() {
		t.Skip("P=256 run; skipped in -short")
	}
	exp := Experiment{App: "fft", Protocol: "fm", Procs: 256}
	seq, err := RunExperiment(exp)
	if err != nil {
		t.Fatal(err)
	}
	shd, err := runSharded(exp, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Cycles != shd.Cycles {
		t.Fatalf("P=256 sharded cycles %d != sequential %d", shd.Cycles, seq.Cycles)
	}
	sc, gc := fmt.Sprintf("%+v", *seq.Counters), fmt.Sprintf("%+v", *shd.Counters)
	if sc != gc {
		t.Fatalf("P=256 sharded counters diverge from sequential:\nseq: %s\nshd: %s", sc, gc)
	}
}
