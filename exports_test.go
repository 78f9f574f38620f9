package dircc

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestParallelExports runs a sweep-style grid at high parallelism with
// per-experiment trace and time-series exports written from the worker
// callbacks — the cmd/sweep -trace-dir -j N path — and verifies every
// grid point produced a complete, parseable pair of files. Run under
// `make race` this doubles as the data-race regression for concurrent
// WriteExports.
func TestParallelExports(t *testing.T) {
	traceDir := t.TempDir()
	tsDir := t.TempDir()

	var exps []Experiment
	for _, app := range []string{"floyd", "fft"} {
		for _, scheme := range []string{"fm", "T4", "sll"} {
			exps = append(exps, Experiment{
				App: app, Protocol: scheme, Procs: 8,
				Obs: &ObsConfig{Trace: true, SampleEvery: 5000},
			})
		}
	}

	// Export from the completion callback, like cmd/sweep does — but
	// concurrently from the worker goroutines rather than after the
	// grid, to exercise simultaneous writers.
	var wg sync.WaitGroup
	errs := make(chan error, len(exps))
	onDone := func(i int, r ResultOrErr) {
		if r.Err != nil {
			errs <- fmt.Errorf("experiment %d: %w", i, r.Err)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := WriteExports(exps[i], r.Result, traceDir, tsDir); err != nil {
				errs <- err
			}
		}()
	}
	RunExperimentsLive(context.Background(), exps, 4, onDone)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, exp := range exps {
		stem := ExportStem(exp)

		// The Chrome trace must be a complete JSON document (an
		// interleaved or truncated write would fail to parse) with a
		// plausible event population.
		raw, err := os.ReadFile(filepath.Join(traceDir, stem+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s.trace.json is not valid JSON (torn write?): %v", stem, err)
		}
		if len(doc.TraceEvents) < 100 {
			t.Errorf("%s.trace.json has only %d events", stem, len(doc.TraceEvents))
		}

		// The time series must have the header and at least one row.
		csv, err := os.ReadFile(filepath.Join(tsDir, stem+".timeseries.csv"))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
		if !strings.HasPrefix(lines[0], "cycle,") {
			t.Errorf("%s.timeseries.csv header = %q", stem, lines[0])
		}
		if len(lines) < 2 {
			t.Errorf("%s.timeseries.csv has no data rows", stem)
		}
	}
}

// TestExportStem pins the file-naming contract the analysis tooling
// globs for.
func TestExportStem(t *testing.T) {
	if got := ExportStem(Experiment{App: "mp3d", Protocol: "T4", Procs: 32}); got != "mp3d_T4_32_hypercube" {
		t.Errorf("stem = %q", got)
	}
	if got := ExportStem(Experiment{App: "lu", Protocol: "sci", Procs: 8, Topology: "torus"}); got != "lu_sci_8_torus" {
		t.Errorf("stem = %q", got)
	}
}
