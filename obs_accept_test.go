package dircc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"dircc/internal/obs"
)

// chromeEvent mirrors one entry of the Chrome trace-event format, as a
// consumer (Perfetto, chrome://tracing) would parse it.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args"`
}

func argInt(t *testing.T, e chromeEvent, key string) int64 {
	t.Helper()
	v, ok := e.Args[key].(float64)
	if !ok {
		t.Fatalf("event %q missing numeric arg %q: %v", e.Name, key, e.Args)
	}
	return int64(v)
}

// TestChromeTraceInvFanoutDepth is the PR's acceptance test: a small
// MP3D run under Dir_4Tree_4 with tracing on must yield a valid Chrome
// trace-event file whose invalidation waves respect the paper's k-ary
// tree depth bound. The wave structure is reconstructed purely from the
// exported JSON — the same view an engineer gets in Perfetto — not from
// the in-memory trace.
func TestChromeTraceInvFanoutDepth(t *testing.T) {
	const procs = 16
	r, err := RunExperiment(Experiment{
		App: "mp3d", Protocol: "Dir4Tree4", Procs: procs, Check: true,
		Obs: &ObsConfig{Trace: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Probe == nil || r.Probe.Trace == nil || r.Probe.Trace.Len() == 0 {
		t.Fatal("trace-enabled run produced no events")
	}

	var buf bytes.Buffer
	if err := r.Probe.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}

	// Structural validity: per-node thread metadata, send/recv slices
	// joined by flow arrows, and every slice on a node track that was
	// declared in the metadata.
	threads := make(map[int]bool)
	var sends, recvs, flowS, flowF int
	for _, e := range file.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			threads[e.Tid] = true
		case e.Cat == "msg" && e.Ph == "X":
			sends++
		case e.Cat == "msgrecv" && e.Ph == "X":
			recvs++
		case e.Cat == "msgflow" && e.Ph == "s":
			flowS++
		case e.Cat == "msgflow" && e.Ph == "f":
			flowF++
		}
	}
	if len(threads) < procs {
		t.Fatalf("trace declares %d node tracks, want >= %d", len(threads), procs)
	}
	if sends == 0 || sends != recvs {
		t.Fatalf("trace has %d send slices and %d recv slices; want equal and > 0", sends, recvs)
	}
	if flowS != sends || flowF != recvs {
		t.Fatalf("flow arrows (%d starts, %d finishes) do not pair the %d messages", flowS, flowF, sends)
	}
	for _, e := range file.TraceEvents {
		if e.Ph != "M" && !threads[e.Tid] {
			t.Fatalf("event %q on undeclared track tid=%d", e.Name, e.Tid)
		}
	}

	// Rebuild the invalidation waves from the exported args alone:
	// delivery instants come from the recv slices, wave membership from
	// the wave-tagged Inv/Update send slices.
	deliverAt := make(map[int64]uint64)
	for _, e := range file.TraceEvents {
		if e.Cat == "msgrecv" && e.Ph == "X" {
			deliverAt[argInt(t, e, "id")] = e.Ts
		}
	}
	type invMsg struct {
		src, dst int
		sentAt   uint64
		arrived  uint64
		depth    int
	}
	type waveKey struct {
		block uint64
		wave  int64
	}
	waves := make(map[waveKey][]*invMsg)
	for _, e := range file.TraceEvents {
		if e.Cat != "msg" || e.Ph != "X" {
			continue
		}
		if e.Name != "Inv" && e.Name != "Update" {
			continue
		}
		w, ok := e.Args["wave"].(float64)
		if !ok {
			t.Fatalf("invalidation send %q lacks a wave tag: %v", e.Name, e.Args)
		}
		k := waveKey{uint64(argInt(t, e, "block")), int64(w)}
		waves[k] = append(waves[k], &invMsg{
			src: int(argInt(t, e, "src")), dst: int(argInt(t, e, "dst")),
			sentAt: e.Ts, arrived: deliverAt[argInt(t, e, "id")],
		})
	}
	if len(waves) == 0 {
		t.Fatal("mp3d under Dir4Tree4 produced no invalidation waves")
	}

	// Per-wave fan-out depth by parent chaining: an Inv sent by a node
	// after an earlier Inv of the same wave reached it sits one level
	// deeper. With k=4 trees over P sharers the depth may not exceed
	// ceil(log_k P) + 1.
	bound := obs.FanoutBound(4, procs)
	if bound != 3 { // ceil(log_4 16) + 1
		t.Fatalf("FanoutBound(4, %d) = %d, want 3", procs, bound)
	}
	maxDepth, maxMsgs := 0, 0
	for k, msgs := range waves {
		for i, m := range msgs {
			m.depth = 1
			for _, p := range msgs[:i] {
				if p.dst == m.src && p.arrived != 0 && p.arrived <= m.sentAt && p.depth+1 > m.depth {
					m.depth = p.depth + 1
				}
			}
			if m.depth > bound {
				t.Fatalf("wave %v: invalidation chain depth %d exceeds ceil(log_4 %d)+1 = %d",
					k, m.depth, procs, bound)
			}
			if m.depth > maxDepth {
				maxDepth = m.depth
			}
		}
		if len(msgs) > maxMsgs {
			maxMsgs = len(msgs)
		}
	}
	t.Logf("%d waves, widest %d msgs, deepest chain %d (bound %d)", len(waves), maxMsgs, maxDepth, bound)
}

// TestProbesDoNotPerturbResults guards the PR's zero-perturbation
// contract: cycle counts and every counter feeding the sweep CSV must
// be bit-identical with all instruments attached, so the default sweep
// output cannot change. The comparison goes through the same format
// string cmd/sweep prints, making "CSV row identical" literal.
func TestProbesDoNotPerturbResults(t *testing.T) {
	configs := []*ObsConfig{
		nil,
		{Trace: true, SampleEvery: 5000, StallCycles: 1 << 40, WatchdogOut: &bytes.Buffer{}},
		{Attrib: true},
		{Trace: true, SampleEvery: 5000, StallCycles: 1 << 40, WatchdogOut: &bytes.Buffer{},
			Attrib: true},
	}
	rows := make([]string, len(configs))
	cycles := make([]uint64, len(configs))
	for i, oc := range configs {
		r, err := RunExperiment(Experiment{
			App: "floyd", Protocol: "Dir4Tree2", Procs: 8, Obs: oc,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := r.Counters
		rows[i] = fmt.Sprintf("%d,%d,%d,%d,%d,%.5f,%d,%d,%d,%d,%.1f,%.1f",
			r.Cycles, c.Messages, c.Bytes, c.ReadMisses, c.WriteMisses, c.MissRatio(),
			c.Invalidations, c.ReplaceInvs, c.Writebacks, c.Replacements,
			c.AvgReadMissLatency(), c.AvgWriteMissLatency())
		cycles[i] = r.Cycles
		if oc == nil {
			continue
		}
		if oc.Trace {
			if r.Probe == nil || r.Probe.Trace == nil || r.Probe.Sampler == nil || r.Probe.Watchdog == nil {
				t.Fatal("obs config did not attach all three instruments")
			}
			if r.Probe.Watchdog.Stalled() {
				t.Error("watchdog fired on a healthy run")
			}
			if len(r.Probe.Sampler.Rows()) == 0 {
				t.Error("sampler captured no intervals")
			}
		}
		if oc.Attrib {
			if r.Attrib == nil || r.Attrib.Report().Reads.Count == 0 {
				t.Error("attribution collector attached but folded nothing")
			}
		}
	}
	for i := 1; i < len(rows); i++ {
		if rows[i] != rows[0] {
			t.Errorf("config %d changed the sweep CSV row:\n  off: %s\n  on:  %s", i, rows[0], rows[i])
		}
		if cycles[i] != cycles[0] {
			t.Errorf("config %d changed cycle count: %d vs %d", i, cycles[0], cycles[i])
		}
	}
}
