package dircc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"dircc/internal/attrib"
)

// obsGoldenCase is one workload TestObsGolden pins under each of its
// schemes. deepTree marks a case whose T4 and stp runs must build
// invalidation trees deeper than one level, T4's with the Figure 7
// root-ack split, and so differ from its fm run.
type obsGoldenCase struct {
	app      string
	procs    int
	schemes  []string
	deepTree bool
}

// name prefixes the case's artifact names in the golden file.
func (c obsGoldenCase) name() string { return fmt.Sprintf("%s-p%d", c.app, c.procs) }

// obsGoldenArtifacts runs the case's workload under scheme on the
// sequential kernel twice, with every instrument attached and a stall
// budget tight enough to fire the watchdog hundreds of times, and
// returns each exported artifact by name in a fixed order, plus the
// attribution report. The first run carries the event stream (trace,
// attribution) and JSON watchdog reports; the second the text reports.
// Each samples the time series at its own interval.
func obsGoldenArtifacts(t *testing.T, c obsGoldenCase, scheme string) (names []string, data [][]byte, rep *attrib.Report) {
	t.Helper()
	add := func(name string, b []byte) {
		names = append(names, c.name()+"/"+scheme+"/"+name)
		data = append(data, b)
	}
	run := func(oc *ObsConfig) *Result {
		r, err := RunExperiment(Experiment{App: c.app, Protocol: scheme, Procs: c.procs, Obs: oc})
		if err != nil {
			t.Fatalf("%s %s: %v", c.name(), scheme, err)
		}
		return r
	}
	csv := func(r *Result) []byte {
		var b bytes.Buffer
		if err := r.Probe.Sampler.WriteCSV(&b); err != nil {
			t.Fatalf("%s time series: %v", scheme, err)
		}
		return b.Bytes()
	}

	var wdJSON, wdText bytes.Buffer
	r := run(&ObsConfig{Trace: true, Attrib: true, SampleEvery: 1000,
		StallCycles: 40, WatchdogOut: &wdJSON, WatchdogJSON: true})
	var chrome, jsonl bytes.Buffer
	if err := r.Probe.Trace.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("%s chrome trace: %v", scheme, err)
	}
	if err := r.Probe.Trace.WriteJSONL(&jsonl); err != nil {
		t.Fatalf("%s jsonl: %v", scheme, err)
	}
	rep = r.Attrib.Report()
	aj, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("%s attrib json: %v", scheme, err)
	}
	add("trace.json", chrome.Bytes())
	add("trace.jsonl", jsonl.Bytes())
	add("attrib.json", aj)
	add("timeseries-1000.csv", csv(r))
	add("watchdog.jsonl", wdJSON.Bytes())

	r = run(&ObsConfig{SampleEvery: 5000, StallCycles: 40, WatchdogOut: &wdText})
	add("timeseries-5000.csv", csv(r))
	add("watchdog.txt", wdText.Bytes())
	return names, data, rep
}

// obsGoldenCases: fft P=8 under full-map, Dir_4Tree_4 and SCI, and
// mp3d P=8 under full-map, Dir_4Tree_4 and STP. On fft P=8 the tree
// never grows past its flat case (its attribution equals full-map's),
// so the mp3d runs pin the multi-level invalidation waves of both tree
// engines and the Figure 7 even-to-odd root-ack split.
var obsGoldenCases = []obsGoldenCase{
	{"fft", 8, []string{"fm", "T4", "sci"}, false},
	{"mp3d", 8, []string{"fm", "T4", "stp"}, true},
}

// TestObsGolden pins the sequential kernel's observability output —
// Chrome trace, JSONL event stream, attribution report, time series,
// and watchdog reports in both forms — for obsGoldenCases against
// SHA-256 digests recorded before the probe layer was unified across
// kernels. The other byte-identity tests compare two runs of the
// current code (sequential against sharded, probes on against off), so
// a change that moved both sides together would pass them; this one
// compares against fixed bytes. The artifacts run to tens of
// megabytes, hence digests.
func TestObsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve instrumented runs; skipped in -short")
	}
	raw, err := os.ReadFile("testdata/obs_golden.sha256")
	if err != nil {
		t.Fatalf("reading golden digests: %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		want[name] = sum
	}
	var got strings.Builder
	seen := 0
	for _, c := range obsGoldenCases {
		attribSum := make(map[string]string)
		for _, scheme := range c.schemes {
			names, data, rep := obsGoldenArtifacts(t, c, scheme)
			for i, name := range names {
				h := sha256.Sum256(data[i])
				sum := hex.EncodeToString(h[:])
				fmt.Fprintf(&got, "%s  %s\n", sum, name)
				seen++
				if strings.HasSuffix(name, "/attrib.json") {
					attribSum[scheme] = sum
				}
				if len(data[i]) == 0 {
					t.Errorf("%s is empty", name)
				}
				if want[name] != sum {
					t.Errorf("%s: sha256 %s (%d bytes), want %s", name, sum, len(data[i]), want[name])
				}
			}
			if c.deepTree && scheme == "T4" {
				// A wave deeper than one level, and fewer home acks than
				// roots (an even root absorbed its odd sibling's ack) with
				// no split violation.
				w := rep.Wave
				if w.MaxDepth() < 2 || w.HomeAcks >= w.Roots || w.SplitViolations != 0 {
					t.Errorf("%s T4: max wave depth %d, %d home acks for %d roots, %d split violations; want depth >= 2 and fewer acks than roots, no violations",
						c.name(), w.MaxDepth(), w.HomeAcks, w.Roots, w.SplitViolations)
				}
				if attribSum["T4"] == attribSum["fm"] {
					t.Errorf("%s: T4 attribution equals full-map's", c.name())
				}
			}
			if c.deepTree && scheme == "stp" {
				// STP's single root fans out down a balanced binary tree.
				if d := rep.Wave.MaxDepth(); d < 2 {
					t.Errorf("%s stp: max wave depth %d, want >= 2", c.name(), d)
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("produced %d artifacts, the golden file lists %d", seen, len(want))
	}
	if t.Failed() {
		t.Logf("digests of this run:\n%s", got.String())
	}
}
