package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"dircc/internal/stats"
)

// sendDeliver records a send at t0 and its delivery at t1 through the
// probe, returning the message id.
func sendDeliver(p *Probe, t0, t1 uint64, typ string, src, dst int, block uint64, req int) int64 {
	var id int64
	p.Finalize(Event{At: t0, Kind: KindSend, Type: typ, Src: src, Dst: dst, Block: block, Req: req}, &id)
	p.Finalize(Event{At: t1, Kind: KindDeliver, Type: typ, Src: src, Dst: dst, Block: block, ID: id}, nil)
	return id
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	tr := NewTrace()
	p := &Probe{Trace: tr}
	p.Finalize(Event{At: 5, Kind: KindTxnStart, Src: 1, Dst: 1, Block: 42, Write: true}, nil)
	p.Finalize(Event{At: 8, Kind: KindHomeStart, Type: "WriteReq", Src: 2, Dst: 2, Block: 42, Req: 1}, nil)
	sendDeliver(p, 10, 20, "Inv", 2, 3, 42, 1)
	p.Finalize(Event{At: 21, Kind: KindCacheState, Src: 3, Dst: 3, Block: 42, Label: "V->IV"}, nil)
	p.Finalize(Event{At: 30, Kind: KindTxnEnd, Src: 1, Dst: 1, Block: 42, Write: true}, nil)

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != tr.Len() {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), tr.Len())
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
		if _, ok := m["kind"]; !ok {
			t.Fatalf("line %q missing kind", ln)
		}
	}
}

func TestWaveTagging(t *testing.T) {
	tr := NewTrace()
	p := &Probe{Trace: tr}
	// No wave open yet: an Inv before any gated write carries wave 0.
	p.Finalize(Event{At: 1, Kind: KindSend, Type: "Inv", Src: 0, Dst: 1, Block: 7, Req: 0}, nil)
	p.Finalize(Event{At: 5, Kind: KindHomeStart, Type: "WriteReq", Src: 0, Dst: 0, Block: 7, Req: 2}, nil)
	p.Finalize(Event{At: 6, Kind: KindSend, Type: "Inv", Src: 0, Dst: 1, Block: 7, Req: 2}, nil)
	p.Finalize(Event{At: 6, Kind: KindSend, Type: "Inv", Src: 0, Dst: 3, Block: 7, Req: 2}, nil)
	p.Finalize(Event{At: 50, Kind: KindHomeStart, Type: "WriteReq", Src: 0, Dst: 0, Block: 7, Req: 3}, nil)
	p.Finalize(Event{At: 51, Kind: KindSend, Type: "Inv", Src: 0, Dst: 1, Block: 7, Req: 3}, nil)
	// Replace_INV is not part of a gated wave.
	p.Finalize(Event{At: 60, Kind: KindSend, Type: "ReplaceInv", Src: 1, Dst: 2, Block: 7, Req: 1}, nil)
	// A read starting does not open a wave.
	p.Finalize(Event{At: 70, Kind: KindHomeStart, Type: "ReadReq", Src: 0, Dst: 0, Block: 9, Req: 4}, nil)
	p.Finalize(Event{At: 71, Kind: KindSend, Type: "Inv", Src: 0, Dst: 1, Block: 9, Req: 4}, nil)

	waves := make(map[int]int) // wave -> count, block 7 only
	for _, e := range tr.Events() {
		if e.Kind != KindSend {
			continue
		}
		switch {
		case e.Type == "ReplaceInv" && e.Wave != 0:
			t.Fatalf("ReplaceInv tagged with wave %d", e.Wave)
		case e.Type == "Inv" && e.Block == 7:
			waves[e.Wave]++
		case e.Type == "Inv" && e.Block == 9 && e.Wave != 0:
			t.Fatalf("block 9 Inv tagged wave %d; ReadReq must not open a wave", e.Wave)
		}
	}
	if waves[0] != 1 || waves[1] != 2 || waves[2] != 1 {
		t.Fatalf("wave counts = %v, want {0:1 1:2 2:1}", waves)
	}
}

func TestFanoutBound(t *testing.T) {
	cases := []struct{ k, p, want int }{
		{2, 1, 1}, {2, 2, 2}, {2, 4, 3}, {2, 8, 4}, {2, 7, 4},
		{4, 1, 1}, {4, 4, 2}, {4, 5, 3}, {4, 16, 3}, {4, 17, 4},
		{1, 8, 4}, // degenerate arity clamps to 2
	}
	for _, c := range cases {
		if got := FanoutBound(c.k, c.p); got != c.want {
			t.Errorf("FanoutBound(%d,%d) = %d, want %d", c.k, c.p, got, c.want)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTrace()
	p := &Probe{Trace: tr}
	p.Finalize(Event{At: 0, Kind: KindTxnStart, Src: 1, Dst: 1, Block: 5}, nil)
	p.Finalize(Event{At: 2, Kind: KindHomeStart, Type: "ReadReq", Src: 0, Dst: 0, Block: 5, Req: 1}, nil)
	sendDeliver(p, 3, 9, "DataReply", 0, 1, 5, 1)
	p.Finalize(Event{At: 9, Kind: KindCacheState, Src: 1, Dst: 1, Block: 5, Label: "IV->V"}, nil)
	p.Finalize(Event{At: 2, Kind: KindDirState, Src: 0, Dst: 0, Block: 5, Label: "uncached->shared"}, nil)
	p.Finalize(Event{At: 4, Kind: KindGateWait, Type: "WriteReq", Src: 0, Dst: 0, Block: 5}, nil)
	p.Finalize(Event{At: 10, Kind: KindTxnEnd, Src: 1, Dst: 1, Block: 5}, nil)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	phs := make(map[string]int)
	for _, ev := range f.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("event missing ph: %v", ev)
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event missing name: %v", ev)
		}
		phs[ph]++
	}
	for _, want := range []string{"X", "i", "b", "e", "s", "f", "M"} {
		if phs[want] == 0 {
			t.Errorf("chrome trace has no %q events (got %v)", want, phs)
		}
	}
}

func TestSamplerIntervalsAndFlush(t *testing.T) {
	ctr := stats.NewCounters()
	s := NewSampler(ctr, 100)
	p := &Probe{Sampler: s}

	ctr.Messages, ctr.Bytes = 3, 30
	p.Tick(50) // inside first interval: no row yet
	if len(s.Rows()) != 0 {
		t.Fatalf("row emitted before interval boundary")
	}
	ctr.Messages, ctr.Bytes = 5, 48
	ctr.ReadMisses = 2
	ctr.ReadMissCycles.Observe(40)
	ctr.ReadMissCycles.Observe(60)
	p.Tick(120) // crosses cycle 100
	if len(s.Rows()) != 1 {
		t.Fatalf("got %d rows, want 1", len(s.Rows()))
	}
	r := s.Rows()[0]
	if r.Cycle != 100 || r.Messages != 5 || r.Bytes != 48 || r.ReadMisses != 2 {
		t.Fatalf("row = %+v", r)
	}
	if r.AvgReadMissCyc != 50 {
		t.Fatalf("interval read-miss latency = %v, want 50", r.AvgReadMissCyc)
	}

	// A long quiet jump emits empty rows for regular spacing.
	p.Tick(420)
	if len(s.Rows()) != 4 {
		t.Fatalf("got %d rows after jump to 420, want 4", len(s.Rows()))
	}
	if s.Rows()[2].Messages != 0 || s.Rows()[3].Cycle != 400 {
		t.Fatalf("empty interval rows wrong: %+v", s.Rows())
	}

	// Flush captures a trailing partial interval.
	ctr.Messages = 6
	s.Flush(450)
	last := s.Rows()[len(s.Rows())-1]
	if last.Cycle != 450 || last.Messages != 1 {
		t.Fatalf("flush row = %+v, want cycle 450 messages 1", last)
	}

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(s.Rows())+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(s.Rows())+1)
	}
	if !strings.HasPrefix(lines[0], "cycle,messages,bytes") {
		t.Fatalf("CSV header = %q", lines[0])
	}
}

func TestWatchdogStall(t *testing.T) {
	var buf bytes.Buffer
	w := NewWatchdog(1000, &buf)
	dumped := 0
	w.Dump = func(out io.Writer) { dumped++; fmt.Fprintln(out, "machine state here") }
	p := &Probe{Watchdog: w}

	w.Progress(10)
	w.NoteInv(77)
	w.NoteInv(77)
	w.NoteInv(33)
	p.Tick(500) // within budget
	if w.Stalled() {
		t.Fatal("fired early")
	}
	p.Tick(1500)
	if !w.Stalled() {
		t.Fatal("did not fire after stall budget")
	}
	p.Tick(2000) // must not re-fire within the same episode
	if dumped != 1 {
		t.Fatalf("dump ran %d times, want 1", dumped)
	}
	out := buf.String()
	if !strings.Contains(out, "no processor retired") || !strings.Contains(out, "machine state here") {
		t.Fatalf("report missing content:\n%s", out)
	}
	if !strings.Contains(out, "block 77       2 invalidations") {
		t.Fatalf("hottest-blocks table wrong:\n%s", out)
	}

	// Progress resets the episode; a fresh stall fires again.
	w.Progress(2100)
	if w.Stalled() {
		t.Fatal("Stalled should clear on progress")
	}
	p.Tick(4000)
	if !w.Stalled() || dumped != 2 {
		t.Fatalf("second episode did not fire (dumped=%d)", dumped)
	}
}

func TestWatchdogDrain(t *testing.T) {
	var buf bytes.Buffer
	w := NewWatchdog(0, &buf)
	w.FireDrain(4242, "2 messages still in flight")
	w.FireDrain(4242, "duplicate")
	if !w.Drained() {
		t.Fatal("drain did not latch")
	}
	if got := strings.Count(buf.String(), "watchdog:"); got != 1 {
		t.Fatalf("drain reported %d times, want 1", got)
	}
	if !strings.Contains(buf.String(), "2 messages still in flight") {
		t.Fatalf("drain report missing reason:\n%s", buf.String())
	}
}

// TestHotBlocks checks the watchdog's hottest-blocks table: blocks rank
// by the invalidations noted on them, most first, ties by block number,
// and TopK cuts the table. Which messages count is the machine's choice
// (coherent's TestWatchdogCountsInvalidations).
func TestHotBlocks(t *testing.T) {
	var buf bytes.Buffer
	w := NewWatchdog(0, &buf)
	w.JSON = true
	w.TopK = 3
	for _, c := range []struct {
		block uint64
		n     int
	}{{4, 3}, {100, 1}, {9, 5}, {2, 3}} {
		for i := 0; i < c.n; i++ {
			w.NoteInv(c.block)
		}
	}
	w.FireDrain(10, "test")
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	want := []BlockCount{{9, 5}, {2, 3}, {4, 3}}
	if fmt.Sprint(rep.HotBlocks) != fmt.Sprint(want) {
		t.Fatalf("hot blocks = %v, want %v", rep.HotBlocks, want)
	}
}
