// Command benchdiff compares two benchmark runs and reports per-
// benchmark deltas, for CI's merge-blocking perf job (`make perf`,
// which gates at -threshold 0.25) and for writing the BENCH_PR<N>.json
// snapshots.
//
// Each input is a BENCH_*.json snapshot or raw `go test -bench`
// output; "-" reads raw output from stdin. With one input benchdiff just parses and prints
// it (useful with -emit to snapshot a fresh run).
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchdiff BENCH_PR1.json -
//	benchdiff -emit BENCH_PR4.json -pr 4 bench.txt
//	benchdiff -gate -threshold 0.15 BENCH_PR4.json bench.txt
//
// -gate exits 1 when any benchmark's ns/op regressed by more than
// -threshold (default 0.10 = 10%). Benchmarks present on only one side
// never gate. Usage errors exit 2.
//
// -kprof-old/-kprof-new compare two kernel-profile JSON documents (the
// sweep's -kprof-json output): rows are matched by grid coordinate and
// the coordination-overhead, serial-fraction, and parallel-efficiency
// deltas are printed. Kernel-profile deltas are wall-clock derived and
// machine-load dependent, so they are always warn-only — they never
// trip -gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"dircc/internal/benchfmt"
	"dircc/internal/kprof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	emit := fs.String("emit", "", "write the new (last) input as a canonical snapshot JSON to this file")
	pr := fs.Int("pr", 0, "PR number to tag the emitted snapshot with")
	title := fs.String("title", "", "title to tag the emitted snapshot with")
	gate := fs.Bool("gate", false, "exit 1 when any ns/op regression exceeds -threshold")
	threshold := fs.Float64("threshold", 0.10, "relative ns/op regression the gate tolerates")
	kprofOld := fs.String("kprof-old", "", "baseline kernel-profile JSON (sweep -kprof-json output)")
	kprofNew := fs.String("kprof-new", "", "new kernel-profile JSON to compare against -kprof-old")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if (*kprofOld == "") != (*kprofNew == "") {
		fmt.Fprintln(stderr, "benchdiff: -kprof-old and -kprof-new must be given together")
		return 2
	}
	if *kprofOld != "" {
		if err := kprofDiff(stdout, *kprofOld, *kprofNew); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		if len(fs.Args()) == 0 {
			return 0
		}
	}

	inputs := fs.Args()
	if len(inputs) < 1 || len(inputs) > 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [flags] <old> [<new>]  (snapshot JSON, raw bench output, or - for stdin)")
		return 2
	}

	snaps := make([]*benchfmt.Snapshot, len(inputs))
	for i, path := range inputs {
		s, err := benchfmt.Load(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		snaps[i] = s
	}
	cur := snaps[len(snaps)-1]

	if *emit != "" {
		out := *cur
		out.PR = *pr
		out.Title = *title
		out.Go = runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH
		f, err := os.Create(*emit)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		if err := out.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		fmt.Fprintf(stderr, "benchdiff: wrote %d benchmarks to %s\n", len(out.Benchmarks), *emit)
	}

	if len(snaps) == 1 {
		benchfmt.WriteTable(stdout, benchfmt.Diff(cur, cur))
		return 0
	}

	deltas := benchfmt.Diff(snaps[0], cur)
	benchfmt.WriteTable(stdout, deltas)

	regressed := false
	for _, d := range deltas {
		if pct := d.PctNs(); pct > *threshold {
			fmt.Fprintf(stderr, "benchdiff: %s regressed %.1f%% (threshold %.1f%%)\n",
				d.Name, 100*pct, 100**threshold)
			regressed = true
		}
	}
	if regressed && *gate {
		return 1
	}
	return 0
}

// kprofDiff prints coordination-overhead deltas between two kernel-
// profile row documents, matching rows by grid coordinate. Warn-only:
// wall-clock attribution depends on host load, so deltas inform but
// never gate.
func kprofDiff(w io.Writer, oldPath, newPath string) error {
	oldRows, err := kprof.LoadRows(oldPath)
	if err != nil {
		return err
	}
	newRows, err := kprof.LoadRows(newPath)
	if err != nil {
		return err
	}
	base := make(map[string]*kprof.Report, len(oldRows))
	for i := range oldRows {
		if oldRows[i].Report != nil {
			base[oldRows[i].Key()] = oldRows[i].Report
		}
	}
	fmt.Fprintf(w, "kernel-profile deltas (%s -> %s), warn-only:\n", oldPath, newPath)
	fmt.Fprintf(w, "%-36s %8s  %22s  %22s  %22s\n", "experiment", "shards", "coord-overhead", "serial-fraction", "parallel-efficiency")
	sort.Slice(newRows, func(i, j int) bool { return newRows[i].Key() < newRows[j].Key() })
	matched := 0
	for i := range newRows {
		nr := &newRows[i]
		if nr.Report == nil {
			continue
		}
		o, ok := base[nr.Key()]
		if !ok {
			fmt.Fprintf(w, "%-36s %8d  (new row; no baseline)\n", nr.Key(), nr.Shards)
			continue
		}
		matched++
		delta := func(ov, nv float64) string {
			return fmt.Sprintf("%.3f -> %.3f (%+.3f)", ov, nv, nv-ov)
		}
		fmt.Fprintf(w, "%-36s %8d  %22s  %22s  %22s\n", nr.Key(), nr.Shards,
			delta(o.CoordOverhead, nr.Report.CoordOverhead),
			delta(o.SerialFraction, nr.Report.SerialFraction),
			delta(o.ParallelEfficiency, nr.Report.ParallelEfficiency))
	}
	fmt.Fprintf(w, "%d of %d rows matched a baseline\n", matched, len(newRows))
	return nil
}
