// Command sweep runs a grid of experiments and emits one CSV row per
// run, for spreadsheet analysis or plotting.
//
// The grid runs on a worker pool (-j, GOMAXPROCS by default). Each
// experiment owns its simulation engine, so results are identical to a
// sequential run, and rows are emitted in grid order regardless of
// which experiment finishes first.
//
// When stderr is a terminal (or -progress is given), a live
// completed/total line with per-experiment wall times is printed to
// stderr; stdout carries only the CSV either way.
//
// Usage:
//
//	sweep                                        # default grid
//	sweep -apps floyd,fft -schemes fm,T4 -procs 8,32 -full
//	sweep -topologies hypercube,torus,bus -j 8
//	sweep -trace-dir traces -timeseries-dir ts   # per-experiment exports
//	sweep -attrib attrib.csv -attrib-json attrib.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"dircc"
	"dircc/internal/attrib"
)

func main() {
	apps := flag.String("apps", "mp3d,lu,floyd,fft", "comma-separated workloads")
	schemes := flag.String("schemes", strings.Join(dircc.PaperSchemes(), ","), "comma-separated schemes")
	procsFlag := flag.String("procs", "8,16,32", "comma-separated machine sizes")
	topologies := flag.String("topologies", "hypercube", "comma-separated interconnects")
	full := flag.Bool("full", false, "paper-scale workload parameters")
	check := flag.Bool("check", false, "enable the coherence monitor")
	jobs := flag.Int("j", 0, "experiments to run in parallel (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "force live progress on stderr even when it is not a terminal")
	traceDir := flag.String("trace-dir", "", "write one Chrome trace-event JSON per experiment into this directory")
	tsDir := flag.String("timeseries-dir", "", "write one time-series CSV per experiment into this directory")
	sampleEvery := flag.Uint64("sample-every", 10000, "time-series sampling interval in simulated cycles")
	watchdog := flag.Uint64("watchdog", 0, "per-experiment stall watchdog threshold in cycles (0 = off)")
	watchdogJSON := flag.Bool("watchdog-json", false, "emit watchdog reports as machine-readable JSON lines")
	attribOut := flag.String("attrib", "", "write per-experiment latency-attribution CSV to this file")
	attribJSONOut := flag.String("attrib-json", "", "write per-experiment latency-attribution JSON to this file")
	flag.Parse()

	if *jobs <= 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}

	var sizes []int
	for _, s := range strings.Split(*procsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "sweep: bad -procs entry %q\n", s)
			os.Exit(1)
		}
		sizes = append(sizes, v)
	}

	// The normalized column divides by the full-map scheme's cycles at
	// the same (app, topology, procs) point. Running fm first keeps the
	// baseline within the user's requested grid; if fm was excluded via
	// -schemes there is no baseline, so the column is an explicit NaN
	// rather than a silent division by zero.
	schemeList := split(*schemes)
	hasFM := false
	for _, s := range schemeList {
		if s == "fm" {
			hasFM = true
		}
	}
	if hasFM {
		schemeList = append([]string{"fm"}, without(schemeList, "fm")...)
	} else {
		fmt.Fprintln(os.Stderr, "sweep: warning: \"fm\" not in -schemes; normalized column will be NaN (no baseline)")
	}

	wantAttrib := *attribOut != "" || *attribJSONOut != ""
	needObs := *traceDir != "" || *tsDir != "" || *watchdog > 0 || wantAttrib
	for _, dir := range []string{*traceDir, *tsDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
	}

	// Build the grid in output order; the pool may finish experiments
	// in any order, but RunExperiments returns results in input order.
	var exps []dircc.Experiment
	for _, app := range split(*apps) {
		for _, topo := range split(*topologies) {
			for _, procs := range sizes {
				for _, scheme := range schemeList {
					exps = append(exps, dircc.Experiment{
						App: app, Protocol: scheme, Procs: procs,
						Full: *full, Check: *check, Topology: topo,
					})
				}
			}
		}
	}

	if needObs {
		for i := range exps {
			oc := &dircc.ObsConfig{
				Trace:        *traceDir != "",
				StallCycles:  *watchdog,
				WatchdogJSON: *watchdogJSON,
				Attrib:       wantAttrib,
			}
			if *tsDir != "" {
				oc.SampleEvery = *sampleEvery
			}
			exps[i].Obs = oc
		}
	}

	// Live progress goes to stderr only when someone is watching: a
	// redirected stderr (CI logs, cron) stays clean unless -progress
	// forces it.
	var onDone func(i int, r dircc.ResultOrErr)
	if *progress || stderrIsTerminal() {
		completed := 0
		onDone = func(i int, r dircc.ResultOrErr) {
			completed++
			exp := exps[i]
			status := "ok"
			if r.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s/%s/%d/%s %s in %.2fs\n",
				completed, len(exps), exp.App, exp.Protocol, exp.Procs,
				orDefault(exp.Topology, "hypercube"), status, r.Elapsed.Seconds())
		}
	}

	results := dircc.RunExperimentsLive(context.Background(), exps, *jobs, onDone)

	// stdout is buffered; the flush after the last row reports any
	// write error (a full disk, say), so a lost table never exits 0.
	stdout := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(stdout, dircc.SweepCSVHeader())
	failed := false
	var baseline uint64 // fm cycles of the current (app, topology, procs) group
	for i, res := range results {
		exp := exps[i]
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %s/%s/%d/%s: %v\n",
				exp.App, exp.Protocol, exp.Procs, orDefault(exp.Topology, "hypercube"), res.Err)
			failed = true
			if exp.Protocol == "fm" {
				baseline = 0
			}
			continue
		}
		r := res.Result
		if r.Probe != nil && r.Probe.Watchdog != nil && r.Probe.Watchdog.Stalled() {
			// A stalled run still quiesced (livelock episodes can
			// resolve), but CI must notice: the watchdog fired, so the
			// sweep exits nonzero.
			fmt.Fprintf(os.Stderr, "sweep: %s/%s/%d/%s: watchdog reported a stall\n",
				exp.App, exp.Protocol, exp.Procs, orDefault(exp.Topology, "hypercube"))
			failed = true
		}
		if exp.Protocol == "fm" {
			baseline = r.Cycles
		}
		norm := math.NaN()
		if hasFM && baseline != 0 {
			norm = float64(r.Cycles) / float64(baseline)
		}
		fmt.Fprintln(stdout, r.SweepCSVRow(norm))
		if err := dircc.WriteExports(exp, r, *traceDir, *tsDir); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			failed = true
		}
	}
	if err := stdout.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		failed = true
	}
	if wantAttrib {
		if err := writeAttrib(exps, results, *attribOut, *attribJSONOut); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeAttrib emits the per-experiment latency-attribution reports as
// CSV and/or JSON. The main results CSV on stdout is untouched —
// attribution always goes to its own files.
func writeAttrib(exps []dircc.Experiment, results []dircc.ResultOrErr, csvPath, jsonPath string) error {
	type row struct {
		App      string         `json:"app"`
		Scheme   string         `json:"scheme"`
		Procs    int            `json:"procs"`
		Topology string         `json:"topology"`
		Report   *attrib.Report `json:"report"`
	}
	var rows []row
	for i, res := range results {
		if res.Err != nil || res.Result == nil || res.Result.Attrib == nil {
			continue
		}
		exp := exps[i]
		rows = append(rows, row{
			App: exp.App, Scheme: exp.Protocol, Procs: exp.Procs,
			Topology: orDefault(exp.Topology, "hypercube"),
			Report:   res.Result.Attrib.Report(),
		})
	}
	if csvPath != "" {
		err := writeFile(csvPath, func(w io.Writer) error {
			fmt.Fprintf(w, "app,scheme,procs,topology,%s\n", attrib.CSVHeader())
			for _, r := range rows {
				fmt.Fprintf(w, "%s,%s,%d,%s,%s\n", r.App, r.Scheme, r.Procs, r.Topology, r.Report.CSVRow())
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if jsonPath != "" {
		return writeFile(jsonPath, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rows)
		})
	}
	return nil
}

// writeFile creates path and fills it through a buffered writer. The
// buffer keeps the first write error, so fill may ignore the errors of
// its Fprintf calls: writeFile returns the first error of fill, the
// flush or the close.
func writeFile(path string, fill func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = fill(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// stderrIsTerminal reports whether stderr is attached to a character
// device (a terminal), without cgo or external dependencies.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}

func split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func without(ss []string, drop string) []string {
	var out []string
	for _, s := range ss {
		if s != drop {
			out = append(out, s)
		}
	}
	return out
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
