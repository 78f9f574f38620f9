package main

import (
	"os"
	"strings"
	"testing"

	"dircc"
)

// TestEventObsNote pins the sweep's stderr contract for sharded event
// observability: exactly one summary note when instrumented
// experiments ran on the parallel kernel, nothing otherwise.
func TestEventObsNote(t *testing.T) {
	cases := []struct {
		name                string
		trace, attrib       bool
		shardedRuns         int
		want                string // "" = no note; otherwise a required substring
		wantEmpty, wantNote bool
	}{
		{name: "no-obs", shardedRuns: 4, wantEmpty: true},
		{name: "sequential-sweep", trace: true, attrib: true, shardedRuns: 0, wantEmpty: true},
		{name: "trace-only", trace: true, shardedRuns: 3, want: "(trace captured", wantNote: true},
		{name: "attrib-only", attrib: true, shardedRuns: 1, want: "(attrib captured", wantNote: true},
		{name: "both", trace: true, attrib: true, shardedRuns: 2, want: "(trace+attrib captured", wantNote: true},
	}
	for _, tc := range cases {
		note := eventObsNote(tc.trace, tc.attrib, tc.shardedRuns)
		if tc.wantEmpty {
			if note != "" {
				t.Errorf("%s: unexpected note %q", tc.name, note)
			}
			continue
		}
		if !strings.HasPrefix(note, "sweep: event obs: sharded ") {
			t.Errorf("%s: note %q missing the stable prefix", tc.name, note)
		}
		if !strings.Contains(note, tc.want) {
			t.Errorf("%s: note %q missing %q", tc.name, note, tc.want)
		}
		if strings.Contains(note, "\n") {
			t.Errorf("%s: note must be a single line, got %q", tc.name, note)
		}
	}
}

// TestTraceAttribNeverFallBack is the other half of the stderr
// contract: the per-run fallback warning is keyed off
// ShardPlan.Fallback(), so trace/attrib sweeps stay warning-free
// because their shard plans resolve to "ok".
func TestTraceAttribNeverFallBack(t *testing.T) {
	for _, oc := range []*dircc.ObsConfig{
		{Trace: true},
		{Attrib: true},
		{Trace: true, Attrib: true},
	} {
		exp := dircc.Experiment{App: "fft", Protocol: "fm", Procs: 8, Shards: 4, Obs: oc}
		plan, err := dircc.ExplainShards(exp)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Fallback() || plan.ReasonToken != "ok" {
			t.Errorf("obs %+v: plan %+v would trigger the per-run fallback warning", oc, plan)
		}
	}
}

// TestWritersReportWriteErrors pins that the -attrib and -kprof CSV
// writers return a failed write instead of dropping it. /dev/full
// opens like any file and fails every write with ENOSPC.
func TestWritersReportWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	if err := writeAttrib(nil, nil, "/dev/full", ""); err == nil {
		t.Error("writeAttrib to /dev/full returned no error")
	}
	if err := writeKProf(nil, nil, "/dev/full", ""); err == nil {
		t.Error("writeKProf to /dev/full returned no error")
	}
}
