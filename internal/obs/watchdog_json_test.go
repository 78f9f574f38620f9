package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestWatchdogJSONStall checks the machine-readable stall report: one
// JSON object per firing, carrying the dump and hot blocks, so CI can
// gate on `kind == "stall"` without scraping prose.
func TestWatchdogJSONStall(t *testing.T) {
	var buf bytes.Buffer
	w := NewWatchdog(1000, &buf)
	w.JSON = true
	w.Dump = func(out io.Writer) { fmt.Fprintln(out, "machine state here") }
	p := &Probe{Watchdog: w}

	w.Progress(10)
	w.NoteInv(77)
	w.NoteInv(77)
	p.Tick(1500)
	if !w.Stalled() {
		t.Fatal("did not fire after stall budget")
	}

	line := strings.TrimSpace(buf.String())
	if strings.Count(line, "\n") != 0 {
		t.Fatalf("JSON mode must emit exactly one line, got:\n%s", buf.String())
	}
	var rep Report
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, line)
	}
	if rep.Kind != "stall" {
		t.Errorf("kind = %q, want stall", rep.Kind)
	}
	if rep.Now != 1500 || rep.LastProgress != 10 {
		t.Errorf("now=%d last_progress=%d, want 1500/10", rep.Now, rep.LastProgress)
	}
	if !strings.Contains(rep.Headline, "no processor retired") {
		t.Errorf("headline = %q", rep.Headline)
	}
	if !strings.Contains(rep.MachineDump, "machine state here") {
		t.Errorf("machine dump missing: %q", rep.MachineDump)
	}
	if len(rep.HotBlocks) == 0 || rep.HotBlocks[0].Block != 77 || rep.HotBlocks[0].Count != 2 {
		t.Errorf("hot blocks = %+v", rep.HotBlocks)
	}
}

// TestWatchdogJSONDrain checks the drain-failure report shape.
func TestWatchdogJSONDrain(t *testing.T) {
	var buf bytes.Buffer
	w := NewWatchdog(0, &buf)
	w.JSON = true
	w.FireDrain(4242, "2 messages still in flight")
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if rep.Kind != "drain" || rep.Now != 4242 {
		t.Errorf("kind=%q now=%d, want drain/4242", rep.Kind, rep.Now)
	}
	if !strings.Contains(rep.Headline, "2 messages still in flight") {
		t.Errorf("headline = %q", rep.Headline)
	}
}
