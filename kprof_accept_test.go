package dircc

import (
	"fmt"
	"strings"
	"testing"

	"dircc/internal/kprof"
)

// The kernel-profile acceptance tests pin the two contracts the
// benchmark's kprof.* metrics rest on: attaching a kprof.Profile
// perturbs nothing (the sweep CSV stays byte-identical to the golden
// fixture at every shard count), and the profile's wall-clock
// decomposition is internally consistent (lane busy + idle covers the
// parallel phase exactly; phase + replay + rebind + other covers the
// wall).

// kprofGoldenGrid is the fft/P=8 slice of the golden grid: every
// scheme class.
func kprofGoldenGrid() []Experiment {
	var exps []Experiment
	for _, scheme := range []string{"fm", "l4", "b4", "ll4", "T4", "stp", "sci", "sll"} {
		exps = append(exps, Experiment{App: "fft", Protocol: scheme, Procs: 8})
	}
	return exps
}

// kprofGoldenSubset extracts the fft/P=8 rows from the committed
// golden fixture, preserving order.
func kprofGoldenSubset(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for i, line := range strings.Split(goldenCSV(t), "\n") {
		if i == 0 {
			sb.WriteString(line)
			sb.WriteByte('\n')
			continue
		}
		f := strings.SplitN(line, ",", 4)
		if len(f) >= 3 && f[0] == "fft" && f[2] == "8" {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestShardedKProfZeroPerturbation pins the zero-perturbation contract
// end to end: with a kernel profile attached to every experiment, the
// sweep CSV must stay byte-identical to the golden fixture at S ∈
// {1, 2, 4, 8} — and at S=1 (the sequential kernel) the profile must
// stay inert.
func TestShardedKProfZeroPerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("28-experiment grid; skipped in -short")
	}
	want := kprofGoldenSubset(t)
	shardCounts := []int{1, 2, 4, 8}
	if raceEnabled {
		shardCounts = []int{2, 8}
	}
	for _, s := range shardCounts {
		profs := map[string]*kprof.Profile{}
		got := sweepCSV(t, kprofGoldenGrid(), func(exp Experiment) (*Result, error) {
			prof := &kprof.Profile{}
			profs[exp.Protocol] = prof
			return runSharded(exp, s, prof)
		})
		diffCSV(t, want, got, fmt.Sprintf("kprof shards=%d", s))
		for scheme, prof := range profs {
			lanes := s
			if s == 1 {
				lanes = 0
			}
			if prof.Shards() != lanes {
				t.Errorf("shards=%d %s: profile recorded %d lanes, want %d", s, scheme, prof.Shards(), lanes)
			}
		}
	}
}

// TestKProfSumToWall is the profile-consistency acceptance test: on a
// profiled sharded run, per-lane busy + idle must sum to the parallel
// phase exactly (S lanes see the same phase wall), and phase + replay
// + rebind + other must account for the full wall time, with the
// attributed components (everything except "other") covering most of
// it.
func TestKProfSumToWall(t *testing.T) {
	const shards = 4
	prof := &kprof.Profile{}
	if _, err := runSharded(Experiment{App: "fft", Protocol: "fm", Procs: 16}, shards, prof); err != nil {
		t.Fatal(err)
	}
	rep := prof.Report()
	if rep.Shards != shards || len(rep.Lanes) != shards {
		t.Fatalf("report has %d shards / %d lanes, want %d", rep.Shards, len(rep.Lanes), shards)
	}
	for i, l := range rep.Lanes {
		if l.BusyNs < 0 || l.IdleNs < 0 {
			t.Fatalf("lane %d: negative time (busy %d, idle %d)", i, l.BusyNs, l.IdleNs)
		}
		if got := l.BusyNs + l.IdleNs; got != rep.PhaseNs {
			t.Errorf("lane %d: busy+idle = %d ns, phase = %d ns; every lane must cover the phase exactly",
				i, got, rep.PhaseNs)
		}
	}
	if rep.PhaseNs < 0 || rep.ReplayNs < 0 || rep.RebindNs < 0 || rep.OtherNs < 0 {
		t.Fatalf("negative wall component: phase %d replay %d rebind %d other %d",
			rep.PhaseNs, rep.ReplayNs, rep.RebindNs, rep.OtherNs)
	}
	if sum := rep.PhaseNs + rep.ReplayNs + rep.RebindNs + rep.OtherNs; sum != rep.WallNs {
		t.Errorf("phase+replay+rebind+other = %d ns, wall = %d ns", sum, rep.WallNs)
	}
	// The attributed components (phase + replay + rebind) must cover the
	// bulk of the wall; a large "other" means the hooks miss real work.
	if attributed := rep.PhaseNs + rep.ReplayNs + rep.RebindNs; attributed < rep.WallNs/2 {
		t.Errorf("attributed time %d ns covers under half the %d ns wall", attributed, rep.WallNs)
	}
	if rep.Events == 0 || rep.Waves == 0 || rep.Rounds == 0 {
		t.Fatalf("empty profile: events=%d waves=%d rounds=%d", rep.Events, rep.Waves, rep.Rounds)
	}
	if rep.SerialFraction < 0 || rep.SerialFraction > 1 {
		t.Errorf("serial fraction %f out of [0,1]", rep.SerialFraction)
	}
	if rep.ParallelEfficiency <= 0 || rep.ParallelEfficiency > 1 {
		t.Errorf("parallel efficiency %f out of (0,1]", rep.ParallelEfficiency)
	}
	if rep.AmdahlSpeedupBound < 1 || rep.AmdahlSpeedupBound > float64(shards) {
		t.Errorf("Amdahl bound %f out of [1,%d]", rep.AmdahlSpeedupBound, shards)
	}
	if rep.ImbalanceFactor < 1 {
		t.Errorf("imbalance factor %f below 1 (critical lane can't beat the mean)", rep.ImbalanceFactor)
	}
}
