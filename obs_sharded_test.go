package dircc

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dircc/internal/coherent"
	"dircc/internal/obs"
)

// shardedObsArtifacts runs one fully-instrumented experiment (trace +
// attribution) and returns the exported Chrome trace, the raw JSONL
// event stream, and the attribution report JSON. shards == 0 is the
// sequential baseline; shards > 1 must actually run on the parallel
// kernel.
func shardedObsArtifacts(t *testing.T, scheme string, shards int) (chrome, jsonl, attrib []byte) {
	t.Helper()
	exp := Experiment{
		App: "fft", Protocol: scheme, Procs: 8, Shards: shards,
		Obs: &ObsConfig{Trace: true, Attrib: true},
	}
	r, err := RunExperiment(exp)
	if err != nil {
		t.Fatalf("%s S=%d: %v", scheme, shards, err)
	}
	if shards > 1 && r.ShardPlan.Fallback() {
		t.Fatalf("%s S=%d: fell back to the sequential kernel (%s)", scheme, shards, r.ShardPlan.ReasonToken)
	}
	if len(r.Probe.Trace.Events()) == 0 {
		t.Fatalf("%s S=%d: empty trace", scheme, shards)
	}
	var cb, jb bytes.Buffer
	if err := r.Probe.Trace.WriteChromeTrace(&cb); err != nil {
		t.Fatalf("%s S=%d chrome trace: %v", scheme, shards, err)
	}
	if err := r.Probe.Trace.WriteJSONL(&jb); err != nil {
		t.Fatalf("%s S=%d jsonl: %v", scheme, shards, err)
	}
	aj, err := json.MarshalIndent(r.Attrib.Report(), "", "  ")
	if err != nil {
		t.Fatalf("%s S=%d attrib json: %v", scheme, shards, err)
	}
	return cb.Bytes(), jb.Bytes(), aj
}

// TestShardedTraceAttribByteIdentity: with event-stream observability
// attached, the sharded kernel's exported Chrome trace, raw event
// stream, and attribution fold must be byte-identical to the
// sequential run at every shard count — the same guarantee already
// pinned for the sweep CSV and the kprof CSV. All eight engine
// families are covered, including the chain/tree schemes whose
// splice and teardown work rides the deferred-op façade. This
// holds because Phase-P emissions are buffered per lane and finalized
// (ID/wave assignment, sink fan-out) in the kernel's global (at, seq)
// merge order, which equals the sequential firing order.
func TestShardedTraceAttribByteIdentity(t *testing.T) {
	shardCounts := []int{1, 2, 4, 8}
	if raceEnabled {
		shardCounts = []int{2, 8}
	}
	for _, scheme := range []string{"fm", "l4", "b4", "ll4", "T4", "stp", "sci", "sll"} {
		seqChrome, seqJSONL, seqAttrib := shardedObsArtifacts(t, scheme, 0)
		for _, s := range shardCounts {
			chrome, jsonl, attrib := shardedObsArtifacts(t, scheme, s)
			if !bytes.Equal(chrome, seqChrome) {
				t.Errorf("%s S=%d: Chrome trace differs from sequential (%d vs %d bytes)",
					scheme, s, len(chrome), len(seqChrome))
			}
			if !bytes.Equal(jsonl, seqJSONL) {
				t.Errorf("%s S=%d: JSONL event stream differs from sequential", scheme, s)
			}
			if !bytes.Equal(attrib, seqAttrib) {
				t.Errorf("%s S=%d: attribution report differs from sequential:\nseq: %s\ngot: %s",
					scheme, s, seqAttrib, attrib)
			}
		}
	}
}

// dropFirstReply wraps an engine and swallows the first data reply
// addressed to victim, so that node's read never completes and the run
// drains with work outstanding. Only victim's lane touches dropped.
type dropFirstReply struct {
	coherent.Engine
	victim  coherent.NodeID
	dropped bool
}

func (e *dropFirstReply) Prepare(m *coherent.Machine) {
	if p, ok := e.Engine.(coherent.Preparer); ok {
		p.Prepare(m)
	}
}

func (e *dropFirstReply) CacheMsg(m *coherent.Machine, msg *coherent.Msg) {
	if msg.Dst == e.victim && msg.Type == coherent.MsgDataReply && !e.dropped {
		e.dropped = true
		return
	}
	e.Engine.CacheMsg(m, msg)
}

// txnEnds records every completed miss as the event stream reports it:
// its cycle and the number of kernel events fired by then.
type txnEnds struct {
	m         *coherent.Machine
	at, fired []uint64
}

func (s *txnEnds) Event(e obs.Event) {
	if e.Kind == obs.KindTxnEnd {
		s.at = append(s.at, e.At)
		s.fired = append(s.fired, s.m.Executed())
	}
}

// drainRun drives full-map P=8 through cold reads of distinct blocks —
// every access a miss — with node 3's first reply swallowed, and
// returns the watchdog's JSON reports and the completed misses. budget,
// when non-zero, is the kernel's event budget.
func drainRun(t *testing.T, shards int, budget uint64) ([]obs.Report, *txnEnds) {
	t.Helper()
	const procs, reads = 8, 12
	eng, err := NewEngine("fm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(procs)
	cfg.MaxEvents = budget
	m, err := coherent.NewShardedMachine(cfg, &dropFirstReply{Engine: eng, victim: 3}, shards)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	wd := obs.NewWatchdog(0, &out)
	wd.JSON = true
	ends := &txnEnds{m: m}
	m.AttachProbe(&obs.Probe{Watchdog: wd, Sinks: []obs.Sink{ends}})
	base := m.Alloc(procs * reads * uint64(cfg.BlockBytes))
	for n := 0; n < procs; n++ {
		node := coherent.NodeID(n)
		var read func(i int)
		read = func(i int) {
			if i == reads {
				return
			}
			addr := base + uint64((n*reads+i)*cfg.BlockBytes)
			m.Access(node, addr, false, 0, func(uint64) { read(i + 1) })
		}
		m.ScheduleAt(node, 0, func() { read(0) })
	}
	if err := m.Quiesce(); err == nil {
		t.Fatalf("S=%d: a swallowed reply must leave the run deadlocked", shards)
	}
	var reps []obs.Report
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var r obs.Report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("S=%d: watchdog line does not parse: %v\n%s", shards, err, line)
		}
		reps = append(reps, r)
	}
	return reps, ends
}

// TestWatchdogDrainReport drives the watchdog's drain report through
// Quiesce on both kernels: a deadlocked run emits exactly one "drain"
// report whose last_progress is the cycle of the last retired
// operation, identically on the sequential kernel and at S=2. A run cut
// short by the event budget right after a completion must report that
// completion too, which holds only if Quiesce folds the lane progress
// clocks before the report: the sequential tick runs before each event,
// so it never saw the last one.
func TestWatchdogDrainReport(t *testing.T) {
	lastEnd := func(e *txnEnds) (at, fired uint64) {
		for i, a := range e.at {
			if a > at {
				at, fired = a, e.fired[i]
			}
		}
		return at, fired
	}
	seq, seqEnds := drainRun(t, 1, 0)
	par, parEnds := drainRun(t, 2, 0)
	for _, c := range []struct {
		name string
		reps []obs.Report
		ends *txnEnds
	}{{"sequential", seq, seqEnds}, {"S=2", par, parEnds}} {
		if len(c.reps) != 1 || c.reps[0].Kind != "drain" {
			t.Fatalf("%s: want exactly one drain report, got %+v", c.name, c.reps)
		}
		if at, _ := lastEnd(c.ends); c.reps[0].LastProgress != at {
			t.Errorf("%s: last_progress %d, want the last completion at %d", c.name, c.reps[0].LastProgress, at)
		}
	}
	if seq[0].Headline != par[0].Headline || seq[0].LastProgress != par[0].LastProgress {
		t.Errorf("drain reports differ across kernels:\nseq: %s (last_progress %d)\nS=2: %s (last_progress %d)",
			seq[0].Headline, seq[0].LastProgress, par[0].Headline, par[0].LastProgress)
	}

	at, fired := lastEnd(seqEnds)
	cut, _ := drainRun(t, 1, fired)
	if len(cut) != 1 || cut[0].Kind != "drain" || !strings.Contains(cut[0].Headline, "budget") {
		t.Fatalf("budget-cut run: want one drain report for the exhausted budget, got %+v", cut)
	}
	if cut[0].LastProgress != at {
		t.Errorf("budget-cut run: last_progress %d, want the completion at %d that the last fired event retired",
			cut[0].LastProgress, at)
	}
}
