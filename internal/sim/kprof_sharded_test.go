package sim

import (
	"testing"

	"dircc/internal/kprof"
)

// runShardedProf mirrors runSharded with a kernel profile attached.
func runShardedProf(nodes, shards, steps int) (*testWorld, *kprof.Profile) {
	sh := NewSharded(nodes, shards)
	p := &kprof.Profile{}
	sh.SetProf(p)
	w := newTestWorld(sh, sh, nodes, steps)
	if err := w.k.Run(); err != nil {
		panic(err)
	}
	return w, p
}

// TestShardedProfiledMatchesSequential: attaching a kernel profile
// must not perturb the simulation — the differential oracle holds
// bit-for-bit with profiling on.
func TestShardedProfiledMatchesSequential(t *testing.T) {
	const nodes, steps = 13, 400
	want := runSeq(nodes, steps)
	for _, shards := range []int{1, 2, 4, 8} {
		got, p := runShardedProf(nodes, shards, steps)
		compareWorlds(t, want, got, "profiled")
		r := p.Report()
		if r.Events != got.k.Executed() {
			t.Fatalf("S=%d: profile saw %d events, kernel executed %d", shards, r.Events, got.k.Executed())
		}
		if r.Shards != shards {
			t.Fatalf("S=%d: report shards %d", shards, r.Shards)
		}
		var laneEvents uint64
		for i := range r.Lanes {
			laneEvents += r.Lanes[i].Events
			// Exact identity by construction: per-lane busy+idle equals
			// the total parallel-phase wall.
			if r.Lanes[i].BusyNs+r.Lanes[i].IdleNs != r.PhaseNs {
				t.Fatalf("S=%d lane %d: busy+idle=%d != phase=%d", shards, i,
					r.Lanes[i].BusyNs+r.Lanes[i].IdleNs, r.PhaseNs)
			}
		}
		// Global events (none in this workload beyond lane firings) are
		// the only executed events outside lanes.
		if laneEvents+r.GlobalEvCnt != r.Events {
			t.Fatalf("S=%d: lane events %d + global %d != executed %d",
				shards, laneEvents, r.GlobalEvCnt, r.Events)
		}
		if r.WallNs < r.PhaseNs+r.ReplayNs+r.RebindNs {
			t.Fatalf("S=%d: wall %d < phase+replay+rebind %d", shards,
				r.WallNs, r.PhaseNs+r.ReplayNs+r.RebindNs)
		}
		if r.Waves == 0 || r.Rounds == 0 || r.Waves < r.Rounds {
			t.Fatalf("S=%d: waves=%d rounds=%d", shards, r.Waves, r.Rounds)
		}
		if r.WaveWidth.Sum != laneEvents {
			t.Fatalf("S=%d: wave-width sum %d != lane events %d", shards, r.WaveWidth.Sum, laneEvents)
		}
		if shards > 1 && r.SendCount == 0 {
			t.Fatalf("S=%d: workload sends cross-lane but profile saw none", shards)
		}
	}
}

// TestShardedProfiledHotPathAllocs: the 0 allocs/op intra-shard
// guarantee holds with a warmed profile attached.
func TestShardedProfiledHotPathAllocs(t *testing.T) {
	sh := NewSharded(8, 4)
	sh.SetProf(&kprof.Profile{})
	const events = 20000
	perNode := make([]int, 8)
	fns := make([]func(), 8)
	for n := 0; n < 8; n++ {
		n := n
		fns[n] = func() {
			if perNode[n] > 0 {
				perNode[n]--
				sh.ScheduleNode(n, Time(n%3+1), Func(fns[n]))
			}
		}
	}
	for n := range perNode {
		perNode[n] = events / 8
		sh.ScheduleNode(n, 1, Func(fns[n]))
	}
	if err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for n := range perNode {
			perNode[n] = events / 8
			sh.ScheduleNode(n, 1, Func(fns[n]))
		}
		if err := sh.Run(); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / events
	if perEvent > 0.01 {
		t.Fatalf("profiled sharded hot path allocates %.4f per event (%.0f total), want ~0", perEvent, allocs)
	}
}

// TestShardedLanePending: lane pending counts sum to Pending minus the
// global queue.
func TestShardedLanePending(t *testing.T) {
	sh := NewSharded(6, 3)
	for n := 0; n < 6; n++ {
		sh.ScheduleNode(n, Time(n+1), Func(func() {}))
	}
	sum := 0
	for i := 0; i < sh.Shards(); i++ {
		sum += sh.LanePending(i)
	}
	if sum != 6 || sh.Pending() != 6 {
		t.Fatalf("lane pending sum %d, Pending %d, want 6", sum, sh.Pending())
	}
}
