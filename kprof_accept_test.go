package dircc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dircc/internal/kprof"
	"dircc/internal/obs"
)

// The kernel-profile acceptance tests pin the observatory's two core
// contracts: attaching a kprof.Profile perturbs nothing (the sweep CSV
// stays byte-identical to the golden fixture at every shard count),
// and the profile's wall-clock decomposition is internally consistent
// (lane busy + idle covers the parallel phase exactly; phase + replay
// + rebind + other covers the wall).

// kprofGoldenGrid is the fft/P=8 slice of the golden grid — every
// scheme class, all shard-safe since the chain-surgery restructure —
// with a kernel profile attached to each experiment.
func kprofGoldenGrid(shards int) []Experiment {
	var exps []Experiment
	for _, scheme := range []string{"fm", "l4", "b4", "ll4", "T4", "stp", "sci", "sll"} {
		exps = append(exps, Experiment{
			App: "fft", Protocol: scheme, Procs: 8, Shards: shards,
			KProf: &kprof.Profile{},
		})
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
// {1, 2, 4, 8} — and at S=1 (sequential-requested) the profile must
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
		exps := kprofGoldenGrid(s)
		got := sweepCSV(t, exps)
		diffCSV(t, want, got, fmt.Sprintf("kprof shards=%d", s))
		for _, exp := range exps {
			plan := exp.shardPlan()
			if plan.Shards > 1 {
				if exp.KProf.Shards() != plan.Shards {
					t.Errorf("shards=%d %s: profile recorded %d lanes, plan says %d",
						s, exp.Protocol, exp.KProf.Shards(), plan.Shards)
				}
			} else if exp.KProf.Shards() != 0 {
				t.Errorf("shards=%d %s: fallback run touched the profile (Shards=%d)",
					s, exp.Protocol, exp.KProf.Shards())
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
	r, err := RunExperiment(Experiment{
		App: "fft", Protocol: "fm", Procs: 16, Shards: shards, KProf: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ShardPlan.Fallback() {
		t.Fatalf("fft/fm fell back to the sequential kernel: %s", r.ShardPlan.ReasonToken)
	}
	rep := r.KProf
	if rep == nil {
		t.Fatal("profiled sharded run returned no kernel report")
	}
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

// TestShardedWatchdogLaneJSON pins the sharded watchdog surface: a
// profiled parallel run with an aggressively small stall budget must
// emit machine-readable reports annotated with per-lane state (lane
// index, pending depth, last-progress cycle) and the wave instant. The
// hottest-blocks table must not depend on whether a trace is attached:
// at S=2 the watchdog-only reports equal the traced run's byte for
// byte, and they list hot blocks.
func TestShardedWatchdogLaneJSON(t *testing.T) {
	const shards = 4
	var buf bytes.Buffer
	r, err := RunExperiment(Experiment{
		App: "fft", Protocol: "fm", Procs: 8, Shards: shards,
		Obs: &ObsConfig{StallCycles: 2, WatchdogOut: &buf, WatchdogJSON: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ShardPlan.Fallback() {
		t.Fatalf("watchdog-only obs forced a fallback: %s", r.ShardPlan.ReasonToken)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("2-cycle stall budget on a miss-heavy run produced no watchdog reports")
	}
	var rep obs.Report
	if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
		t.Fatalf("watchdog JSON line does not parse: %v\n%s", err, lines[0])
	}
	if rep.Kind != "stall" {
		t.Errorf("report kind %q, want stall", rep.Kind)
	}
	if len(rep.Lanes) != shards {
		t.Fatalf("report annotates %d lanes, want %d", len(rep.Lanes), shards)
	}
	for i, l := range rep.Lanes {
		if l.Lane != i {
			t.Errorf("lane %d reported with index %d", i, l.Lane)
		}
	}
	if !strings.Contains(rep.MachineDump, "lane") {
		t.Error("machine dump lacks the per-lane section")
	}

	reports := func(trace bool) string {
		t.Helper()
		var buf bytes.Buffer
		_, err := RunExperiment(Experiment{
			App: "mp3d", Protocol: "fm", Procs: 8, Shards: 2,
			Obs: &ObsConfig{Trace: trace, StallCycles: 60, WatchdogOut: &buf, WatchdogJSON: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	alone, traced := reports(false), reports(true)
	if alone != traced {
		t.Errorf("S=2 watchdog reports differ with and without a trace:\nalone:  %.300s\ntraced: %.300s", alone, traced)
	}
	hot := 0
	for _, line := range strings.Split(strings.TrimSpace(alone), "\n") {
		var rep obs.Report
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			t.Fatalf("watchdog JSON line does not parse: %v\n%s", err, line)
		}
		if len(rep.HotBlocks) > 0 {
			hot++
		}
	}
	if hot == 0 {
		t.Error("no S=2 watchdog-only report lists hot blocks")
	}
}

// TestShardedSamplerGaugeFoldIdentity pins the shard-compatible
// instruments: with the time-series sampler and the live gauge
// attached, the folded totals of the sampled series and the gauge's
// final state must be identical between the sequential kernel and the
// parallel kernel at S ∈ {2, 8}. (Per-row deltas may shift between
// adjacent intervals — the tick cadence differs — but the totals are
// conserved.)
func TestShardedSamplerGaugeFoldIdentity(t *testing.T) {
	type totals struct {
		rows                                         int
		msgs, bytes, rdMiss, wrMiss, rdHit, wrHit    uint64
		invs, invAcks, writebacks, dirBusy, netDelay uint64
		gaugeCycles, gaugeEvents                     uint64
	}
	fold := func(t *testing.T, shards int) totals {
		t.Helper()
		g := &obs.Gauge{}
		r, err := RunExperiment(Experiment{
			App: "fft", Protocol: "fm", Procs: 8, Shards: shards,
			Obs: &ObsConfig{SampleEvery: 5000, Gauge: g},
		})
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 && r.ShardPlan.Fallback() {
			t.Fatalf("sampler/gauge obs forced a fallback at S=%d: %s", shards, r.ShardPlan.ReasonToken)
		}
		if r.Probe == nil || r.Probe.Sampler == nil {
			t.Fatal("sampler not attached")
		}
		var tt totals
		for _, row := range r.Probe.Sampler.Rows() {
			tt.rows++
			tt.msgs += row.Messages
			tt.bytes += row.Bytes
			tt.rdMiss += row.ReadMisses
			tt.wrMiss += row.WriteMisses
			tt.rdHit += row.ReadHits
			tt.wrHit += row.WriteHits
			tt.invs += row.Invalidations
			tt.invAcks += row.InvAcks
			tt.writebacks += row.Writebacks
			tt.dirBusy += row.DirectoryBusy
			tt.netDelay += row.NetQueueDelay
		}
		if !g.Done() {
			t.Errorf("S=%d: gauge not finished after quiesce", shards)
		}
		tt.gaugeCycles, tt.gaugeEvents = g.Cycles(), g.Events()
		if tt.gaugeCycles != r.Cycles {
			t.Errorf("S=%d: gauge cycles %d != result cycles %d", shards, tt.gaugeCycles, r.Cycles)
		}
		return tt
	}
	seq := fold(t, 0)
	if seq.rows == 0 || seq.msgs == 0 {
		t.Fatalf("sequential baseline sampled nothing: %+v", seq)
	}
	for _, s := range []int{2, 8} {
		if got := fold(t, s); got != seq {
			t.Errorf("S=%d folded totals diverge from sequential:\nseq: %+v\ngot: %+v", s, seq, got)
		}
	}
}

// TestExplainShardsMixedGrid pins the fallback explainability surface:
// over a grid that hits every fallback class, ExplainShards must
// return a plan whose reason token and description are non-empty, with
// Fallback() true exactly when the effective count dropped to 1.
// Trace and attribution runs are eligible ("ok"), and so is every
// registered engine family, the chain and tree engines included: the
// protocol is never a fallback reason. Only checked runs and
// memory-resident locks force the sequential kernel.
func TestExplainShardsMixedGrid(t *testing.T) {
	cases := []struct {
		name string
		exp  Experiment
		want string
	}{
		{"eligible", Experiment{App: "fft", Protocol: "fm", Procs: 8, Shards: 4}, "ok"},
		{"sequential", Experiment{App: "fft", Protocol: "fm", Procs: 8, Shards: 1}, "sequential-requested"},
		{"checked", Experiment{App: "fft", Protocol: "fm", Procs: 8, Shards: 4, Check: true}, "checked-run"},
		{"memlocks", Experiment{App: "fft", Protocol: "fm", Procs: 8, Shards: 4, MemLocks: true}, "mem-locks"},
		{"trace", Experiment{App: "fft", Protocol: "fm", Procs: 8, Shards: 4, Obs: &ObsConfig{Trace: true}}, "ok"},
		{"attrib", Experiment{App: "fft", Protocol: "fm", Procs: 8, Shards: 4, Obs: &ObsConfig{Attrib: true}}, "ok"},
		{"sampler-ok", Experiment{App: "fft", Protocol: "fm", Procs: 8, Shards: 4, Obs: &ObsConfig{SampleEvery: 5000, StallCycles: 1 << 40}}, "ok"},
		{"safe-l4", Experiment{App: "fft", Protocol: "l4", Procs: 8, Shards: 4}, "ok"},
		{"safe-b4", Experiment{App: "fft", Protocol: "b4", Procs: 8, Shards: 4}, "ok"},
		{"safe-ll4", Experiment{App: "fft", Protocol: "ll4", Procs: 8, Shards: 4}, "ok"},
		{"safe-tree", Experiment{App: "fft", Protocol: "T4", Procs: 8, Shards: 4}, "ok"},
		{"safe-stp", Experiment{App: "fft", Protocol: "stp", Procs: 8, Shards: 4}, "ok"},
		{"safe-sci", Experiment{App: "fft", Protocol: "sci", Procs: 8, Shards: 4}, "ok"},
		{"safe-sll", Experiment{App: "fft", Protocol: "sll", Procs: 8, Shards: 4}, "ok"},
	}
	for _, tc := range cases {
		plan, err := ExplainShards(tc.exp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if plan.ReasonToken == "" || plan.Reason.Describe() == "" {
			t.Errorf("%s: empty reason (token %q, describe %q)", tc.name, plan.ReasonToken, plan.Reason.Describe())
		}
		if plan.ReasonToken != tc.want {
			t.Errorf("%s: reason %q, want %q", tc.name, plan.ReasonToken, tc.want)
		}
		switch tc.want {
		case "ok":
			if plan.Fallback() || plan.Shards != tc.exp.Shards {
				t.Errorf("%s: eligible plan reports fallback=%v shards=%d", tc.name, plan.Fallback(), plan.Shards)
			}
		case "sequential-requested":
			// Asking for one shard is not a fallback — nothing was lost.
			if plan.Fallback() || plan.Shards != 1 {
				t.Errorf("%s: sequential request reports fallback=%v shards=%d", tc.name, plan.Fallback(), plan.Shards)
			}
		default:
			if !plan.Fallback() || plan.Shards != 1 {
				t.Errorf("%s: fallback plan reports fallback=%v shards=%d", tc.name, plan.Fallback(), plan.Shards)
			}
		}
		// The plan must match what RunExperiment actually does.
		r, err := RunExperiment(tc.exp)
		if err != nil {
			t.Fatalf("%s run: %v", tc.name, err)
		}
		if r.ShardPlan != plan {
			t.Errorf("%s: ExplainShards %+v != RunExperiment plan %+v", tc.name, plan, r.ShardPlan)
		}
	}
}
