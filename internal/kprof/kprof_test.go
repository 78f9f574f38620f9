package kprof

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHist(t *testing.T) {
	var h Hist
	if h.Count != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty hist not zero")
	}
	for _, v := range []uint64{0, 1, 2, 3, 1000, 1 << 20} {
		h.Observe(v)
	}
	if h.Count != 6 || h.MaxV != 1<<20 {
		t.Fatalf("count=%d max=%d", h.Count, h.MaxV)
	}
	if got := h.Quantile(1.0); got != 1<<20 {
		t.Fatalf("p100=%d", got)
	}
	if got := h.Quantile(0.0); got != 0 {
		t.Fatalf("p0=%d", got)
	}
	// p50 lands in the bucket holding the 3rd observation (v=2,3 →
	// bit-length 2 → edge 3).
	if got := h.Quantile(0.5); got != 3 {
		t.Fatalf("p50=%d", got)
	}
	var m Hist
	m.Merge(&h)
	m.Merge(&h)
	if m.Count != 12 || m.Sum != 2*h.Sum || m.MaxV != h.MaxV {
		t.Fatalf("merge: %+v", m)
	}
}

// driveWave pushes one synthetic wave through the coordinator-side
// hook sequence the kernel uses.
func driveWave(p *Profile, at uint64, fired []uint64) {
	p.WaveStart(at)
	for i := range fired {
		p.LaneStart(i)
		p.LaneEnd(i)
		p.LaneDone(i, fired[i])
	}
	p.WaveBarrier()
	rs := p.Clock()
	last := len(fired) - 1
	p.NoteSendReplay(0, 5)
	p.NoteGlobalOp(last, 3)
	p.NoteGlobalEvent(2)
	p.NoteBind(0)
	p.EndReplay(rs)
	bs := p.Clock()
	p.EndRebind(bs)
	var total uint64
	for _, f := range fired {
		total += f
	}
	p.WaveEnd(total)
}

func TestProfileFoldAndReport(t *testing.T) {
	p := &Profile{}
	p.Start(2)
	p.RoundStart(10)
	driveWave(p, 10, []uint64{3, 1})
	driveWave(p, 10, []uint64{0, 2})
	p.RoundStart(20)
	driveWave(p, 20, []uint64{4, 4})
	p.NoteRelHome()
	p.Finish(14)

	r := p.Report()
	if r.Shards != 2 || r.Rounds != 2 || r.Waves != 3 || r.Events != 14 {
		t.Fatalf("shape: %+v", r)
	}
	if r.Lanes[0].Events != 7 || r.Lanes[1].Events != 7 {
		t.Fatalf("lane events: %+v", r.Lanes)
	}
	if r.Lanes[0].MaxWaveEvents != 4 || r.Lanes[1].MaxWaveEvents != 4 {
		t.Fatalf("max wave events: %+v", r.Lanes)
	}
	if r.SendCount != 3 || r.GlobalOpCnt != 3 || r.GlobalEvCnt != 3 || r.BindCount != 3 || r.RelHomeCount != 1 {
		t.Fatalf("replay counts: %+v", r)
	}
	if r.Lanes[0].Sends != 3 || r.Lanes[1].GlobalOps != 3 || r.Lanes[0].Spawns != 3 {
		t.Fatalf("per-lane replay attribution: %+v", r.Lanes)
	}
	if r.WaveWidth.Count != 3 || r.WaveWidth.Sum != 14 || r.WaveWidth.MaxV != 8 {
		t.Fatalf("wave width: %+v", r.WaveWidth)
	}
	// Identity by construction: busy+idle per lane per wave = phase.
	for i := range r.Lanes {
		if r.Lanes[i].BusyNs+r.Lanes[i].IdleNs != r.PhaseNs {
			t.Fatalf("lane %d busy+idle=%d phase=%d", i,
				r.Lanes[i].BusyNs+r.Lanes[i].IdleNs, r.PhaseNs)
		}
	}
	if r.WallNs < r.PhaseNs+r.ReplayNs+r.RebindNs {
		t.Fatalf("wall %d < components %d", r.WallNs, r.PhaseNs+r.ReplayNs+r.RebindNs)
	}
	if r.OtherNs != r.WallNs-r.PhaseNs-r.ReplayNs-r.RebindNs {
		t.Fatalf("other decomposition broken")
	}
	if r.SerialFraction < 0 || r.SerialFraction > 1 {
		t.Fatalf("serial fraction %v", r.SerialFraction)
	}
	if r.AmdahlSpeedupBound < 1 || r.AmdahlSpeedupBound > 2 {
		t.Fatalf("amdahl bound %v out of [1,2] for S=2", r.AmdahlSpeedupBound)
	}

	// Timeline recorded all three waves with per-lane splits.
	tl := p.Timeline()
	if len(tl) != 3 {
		t.Fatalf("timeline len %d", len(tl))
	}
	if tl[2].At != 20 || tl[2].LaneEvents[0] != 4 || tl[2].LaneEvents[1] != 4 {
		t.Fatalf("timeline slice: %+v", tl[2])
	}
	if tl[0].ReplayNs <= 0 {
		t.Fatalf("replay not attributed to timeline: %+v", tl[0])
	}

	// CSV row matches header width.
	if len(CSVHeader()) != len(r.CSVRow()) {
		t.Fatalf("csv header %d cols, row %d", len(CSVHeader()), len(r.CSVRow()))
	}

	// Table and JSON render without error.
	var buf bytes.Buffer
	r.WriteTable(&buf)
	if !strings.Contains(buf.String(), "serial-fraction") || !strings.Contains(buf.String(), "lane  1") {
		t.Fatalf("table output:\n%s", buf.String())
	}
	buf.Reset()
	if err := r.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Events != r.Events || len(back.Lanes) != 2 {
		t.Fatalf("json round trip: %+v", back)
	}
}

func TestProfileAccumulatesAcrossRuns(t *testing.T) {
	p := &Profile{}
	p.Start(2)
	p.RoundStart(1)
	driveWave(p, 1, []uint64{1, 1})
	p.Finish(2)
	w1 := p.Report().WallNs

	p.Start(2) // second Run on the same kernel
	p.RoundStart(2)
	driveWave(p, 2, []uint64{1, 1})
	p.Finish(4)

	r := p.Report()
	if r.Runs != 2 || r.Waves != 2 || r.Events != 4 {
		t.Fatalf("accumulate: %+v", r)
	}
	if r.WallNs < w1 {
		t.Fatalf("wall went backwards: %d < %d", r.WallNs, w1)
	}
}

func TestTimelineCap(t *testing.T) {
	p := &Profile{}
	p.Start(1)
	for i := 0; i < TimelineCap+10; i++ {
		p.RoundStart(uint64(i))
		driveWave(p, uint64(i), []uint64{1})
	}
	p.Finish(uint64(TimelineCap + 10))
	r := p.Report()
	if r.TimelineDropped != 10 {
		t.Fatalf("dropped %d", r.TimelineDropped)
	}
	if len(p.Timeline()) != TimelineCap {
		t.Fatalf("timeline len %d", len(p.Timeline()))
	}
}

func TestChromeTrace(t *testing.T) {
	p := &Profile{}
	p.Start(2)
	p.RoundStart(5)
	driveWave(p, 5, []uint64{2, 3})
	p.Finish(5)
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid json: %v\n%s", err, buf.String())
	}
	var laneSlices, coordSlices int
	for _, e := range doc.TraceEvents {
		switch e["cat"] {
		case "lane":
			laneSlices++
		case "coord":
			coordSlices++
		}
	}
	if laneSlices != 2 || coordSlices != 1 {
		t.Fatalf("lane=%d coord=%d\n%s", laneSlices, coordSlices, buf.String())
	}
}

func TestRowsRoundTrip(t *testing.T) {
	p := &Profile{}
	p.Start(2)
	p.RoundStart(1)
	driveWave(p, 1, []uint64{1, 1})
	p.Finish(2)
	rows := []Row{{App: "fft", Scheme: "l4", Procs: 16, Topology: "mesh", Shards: 2, Report: p.Report()}}
	path := filepath.Join(t.TempDir(), "kprof.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteRows(f, rows); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := LoadRows(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Key() != "fft/l4/P16/mesh" || back[0].Report.Events != 2 {
		t.Fatalf("round trip: %+v", back)
	}
	if _, err := LoadRows(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
