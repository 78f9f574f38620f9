// Command benchdiff compares two benchmark runs and reports per-
// benchmark deltas, for CI's merge-blocking perf job (`make perf
// BASE=<rev>`, which gates at -threshold 0.25).
//
// Each input is raw `go test -bench` output; "-" reads it from stdin. A
// benchmark run more than once in one input is compared by its median
// run. With one input benchdiff just parses and prints it.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchdiff base.out -
//	benchdiff -gate -threshold 0.15 base.out head.out
//
// -gate exits 1 when any benchmark's ns/op regressed by more than
// -threshold (default 0.10 = 10%). Benchmarks present on only one side
// never gate. Usage errors exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dircc/internal/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gate := fs.Bool("gate", false, "exit 1 when any ns/op regression exceeds -threshold")
	threshold := fs.Float64("threshold", 0.10, "relative ns/op regression the gate tolerates")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	inputs := fs.Args()
	if len(inputs) < 1 || len(inputs) > 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [flags] <old> [<new>]  (raw bench output, or - for stdin)")
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
