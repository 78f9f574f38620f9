// Command coherencesim runs one workload under one coherence protocol
// and prints the full statistics of the run.
//
// Usage:
//
//	coherencesim -app floyd -protocol Dir4Tree2 -procs 32 [-full] [-check]
//	coherencesim -app mp3d -trace run.json -timeseries ts.csv -watchdog 200000
//
// Protocols: fm, L<i>/Dir<i>NB, B<i>/Dir<i>B, LL<i>/LimitLESS<i>,
// T<i>/Dir<i>Tree2, Dir<i>Tree<k>, sll, sci, stp. Workloads: mp3d, lu,
// floyd, fft.
//
// -trace writes a Chrome trace-event file loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing; a path ending in .jsonl
// selects the raw structured event log instead. -timeseries writes a
// per-interval counters CSV. -watchdog N dumps the machine state to
// stderr when no processor makes progress for N cycles (-watchdog-json
// switches the dump to one JSON object, and a fired watchdog makes the
// command exit 2). -attrib prints the per-transaction latency
// attribution (phase breakdown, critical path, invalidation-wave
// structure). -json prints the result as JSON instead of text.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dircc"
	"dircc/internal/attrib"
	"dircc/internal/trace"
)

func main() {
	app := flag.String("app", "floyd", "workload: mp3d, lu, floyd, fft")
	protocol := flag.String("protocol", "Dir4Tree2", "coherence scheme (fm, L4, B4, LL4, T4, Dir4Tree2, sll, sci, stp)")
	procs := flag.Int("procs", 16, "number of processors")
	full := flag.Bool("full", false, "use the paper-scale workload parameters")
	check := flag.Bool("check", false, "enable the coherence monitor")
	record := flag.String("record", "", "record the reference trace to this file")
	replay := flag.String("replay", "", "replay a recorded trace instead of running -app")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON here (.jsonl suffix selects the raw event log)")
	timeseries := flag.String("timeseries", "", "write a counters time-series CSV here")
	sampleEvery := flag.Uint64("sample-every", 10000, "time-series sampling interval in simulated cycles")
	watchdog := flag.Uint64("watchdog", 0, "stall watchdog threshold in cycles (0 = off)")
	watchdogJSON := flag.Bool("watchdog-json", false, "emit watchdog reports as machine-readable JSON lines")
	attribOut := flag.Bool("attrib", false, "print the per-transaction latency attribution after the counters")
	jsonOut := flag.Bool("json", false, "print the result as JSON instead of text")
	flag.Parse()

	var oc *dircc.ObsConfig
	if *traceOut != "" || *timeseries != "" || *watchdog > 0 || *attribOut {
		oc = &dircc.ObsConfig{
			Trace:        *traceOut != "",
			StallCycles:  *watchdog,
			WatchdogJSON: *watchdogJSON,
			Attrib:       *attribOut,
		}
		if *timeseries != "" {
			oc.SampleEvery = *sampleEvery
		}
	}

	var r *dircc.Result
	var err error
	switch {
	case *replay != "":
		if oc != nil {
			fail(fmt.Errorf("-trace/-timeseries/-watchdog are not supported with -replay"))
		}
		f, ferr := os.Open(*replay)
		if ferr != nil {
			fail(ferr)
		}
		tr, terr := trace.ReadFrom(f)
		f.Close()
		if terr != nil {
			fail(terr)
		}
		r, err = dircc.ReplayTrace(tr, *protocol)
		if err != nil {
			fail(err)
		}
		if !*jsonOut {
			fmt.Printf("trace %s (%d processors, %d events) replayed under %s\n\n",
				*replay, tr.Procs, tr.Events(), *protocol)
		}
	case *record != "":
		if oc != nil {
			fail(fmt.Errorf("-trace/-timeseries/-watchdog are not supported with -record"))
		}
		exp := dircc.Experiment{App: *app, Protocol: *protocol, Procs: *procs, Full: *full, Check: *check}
		var tr *dircc.Trace
		tr, r, err = dircc.RecordTrace(exp)
		if err != nil {
			fail(err)
		}
		f, ferr := os.Create(*record)
		if ferr != nil {
			fail(ferr)
		}
		if _, werr := tr.WriteTo(f); werr != nil {
			fail(werr)
		}
		if cerr := f.Close(); cerr != nil {
			fail(cerr)
		}
		if !*jsonOut {
			fmt.Printf("workload %s recorded to %s (%d events)\n\n", *app, *record, tr.Events())
		}
	default:
		r, err = dircc.RunExperiment(dircc.Experiment{
			App: *app, Protocol: *protocol, Procs: *procs, Full: *full, Check: *check,
			Obs: oc,
		})
		if err != nil {
			fail(err)
		}
		if !*jsonOut {
			fmt.Printf("workload %s, protocol %s, %d processors (full=%v)\n",
				r.Experiment.App, r.Experiment.Protocol, r.Experiment.Procs, r.Experiment.Full)
			fmt.Printf("result check: passed (parallel output matches the serial reference)\n\n")
		}
	}

	if p := r.Probe; p != nil {
		if p.Trace != nil && *traceOut != "" {
			writeFile(*traceOut, func(f *os.File) error {
				if strings.HasSuffix(*traceOut, ".jsonl") {
					return p.Trace.WriteJSONL(f)
				}
				return p.Trace.WriteChromeTrace(f)
			})
			if !*jsonOut {
				fmt.Printf("event trace: %d events written to %s\n", p.Trace.Len(), *traceOut)
			}
		}
		if p.Sampler != nil && *timeseries != "" {
			writeFile(*timeseries, func(f *os.File) error { return p.Sampler.WriteCSV(f) })
			if !*jsonOut {
				fmt.Printf("time series: %d intervals written to %s\n", len(p.Sampler.Rows()), *timeseries)
			}
		}
	}

	stalled := r.Probe != nil && r.Probe.Watchdog != nil && r.Probe.Watchdog.Stalled()
	if *jsonOut {
		out := struct {
			App      string          `json:"app"`
			Protocol string          `json:"protocol"`
			Procs    int             `json:"procs"`
			Topology string          `json:"topology,omitempty"`
			Full     bool            `json:"full"`
			Cycles   uint64          `json:"cycles"`
			Counters *dircc.Counters `json:"counters"`
			Attrib   *attrib.Report  `json:"attrib,omitempty"`
			Stalled  bool            `json:"stalled,omitempty"`
		}{
			App: r.Experiment.App, Protocol: r.Experiment.Protocol,
			Procs: r.Experiment.Procs, Topology: r.Experiment.Topology,
			Full: r.Experiment.Full, Cycles: r.Cycles, Counters: r.Counters,
			Stalled: stalled,
		}
		if r.Attrib != nil {
			out.Attrib = r.Attrib.Report()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	} else {
		fmt.Print(r.Counters.String())
		if r.Attrib != nil {
			fmt.Println()
			r.Attrib.Report().WriteTable(os.Stdout)
		}
	}
	if stalled {
		// Exit 2 distinguishes "the run finished but the watchdog fired"
		// from hard failures (exit 1), so CI can gate on stalls.
		fmt.Fprintln(os.Stderr, "coherencesim: the stall watchdog fired during this run")
		os.Exit(2)
	}
}

// writeFile creates path and streams the export into it, failing the
// command on any error.
func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "coherencesim:", err)
	os.Exit(1)
}
