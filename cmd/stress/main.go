// Command stress is the randomized differential soak driver: it feeds
// seed-derived adversarial workloads (internal/fuzz) through a set of
// protocol engines and compares every engine against the full-map
// oracle. Any divergence — invariant violation, deadlock, livelock,
// memory or read-value disagreement — is reported, optionally
// delta-debugged to a minimal reproduction, and optionally persisted
// as witness artifacts (canonical workload, protocol-event trace,
// ready-to-paste regression test).
//
// Usage:
//
//	stress -seed 42                  # one seed, all six differential schemes
//	stress -seed 1 -n 500            # seeds 1..500
//	stress -duration 30s             # soak from -seed until the clock runs out
//	stress -gen replacement-storm -p 16 -seed 7
//	stress -schemes tree -minimize -witness-dir .
//
// Exit status: 0 when every workload agrees, 1 on a divergence, 2 on
// usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dircc/internal/fuzz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "first workload seed")
	n := fs.Int("n", 1, "number of consecutive seeds to run")
	duration := fs.Duration("duration", 0, "soak until this much wall time has passed (overrides -n)")
	procs := fs.Int("p", 0, "machine size for -gen workloads (0 = derive from the seed)")
	gen := fs.String("gen", "", "workload generator ("+fuzz.GeneratorNames()+"; empty = derive from the seed)")
	schemes := fs.String("schemes", "all", "engine set: all, tree")
	minimize := fs.Bool("minimize", false, "delta-debug any divergence to a minimal workload")
	witnessDir := fs.String("witness-dir", "", "write witness artifacts for divergences into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "stress: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}
	var engines []fuzz.NamedEngine
	switch *schemes {
	case "all":
		engines = fuzz.AllEngines()
	case "tree":
		engines = fuzz.TreeEngines()
	default:
		fmt.Fprintf(stderr, "stress: unknown -schemes %q (have all, tree)\n", *schemes)
		return 2
	}
	if *n < 1 {
		fmt.Fprintln(stderr, "stress: -n must be at least 1")
		return 2
	}
	if *procs < 0 || *procs == 1 {
		fmt.Fprintln(stderr, "stress: -p must be 0 or at least 2")
		return 2
	}

	workload := func(s uint64) (*fuzz.Workload, error) {
		if *gen == "" {
			return fuzz.ForSeed(s), nil
		}
		p := *procs
		if p == 0 {
			p = 8
		}
		return fuzz.Generate(*gen, s, p)
	}

	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration) //dirccvet:allow simdet host-side soak budget; the simulations themselves stay seed-deterministic
	}
	ran := 0
	for s := *seed; ; s++ {
		if deadline.IsZero() {
			if ran >= *n {
				break
			}
		} else if !time.Now().Before(deadline) { //dirccvet:allow simdet host-side soak budget
			break
		}
		w, err := workload(s)
		if err != nil {
			fmt.Fprintln(stderr, "stress:", err)
			return 2
		}
		d, err := fuzz.RunDifferential(w, engines)
		if err != nil {
			fmt.Fprintln(stderr, "stress:", err)
			return 2
		}
		ran++
		if d == nil {
			continue
		}
		return report(stdout, stderr, d, engines, *minimize, *witnessDir)
	}
	fmt.Fprintf(stdout, "stress: %d workloads, %d engines, no divergence\n", ran, len(engines))
	return 0
}

// report prints (and optionally minimizes and persists) one divergence.
func report(stdout, stderr io.Writer, d *fuzz.Divergence, engines []fuzz.NamedEngine, minimize bool, witnessDir string) int {
	fmt.Fprintln(stdout, d.Error())
	if minimize {
		min, dd := fuzz.ShrinkDivergence(d, engines)
		d = dd
		fmt.Fprintf(stdout, "minimized to %d ops:\n%s", min.OpCount(), min.Canon())
	}
	if witnessDir != "" {
		paths, err := fuzz.WriteWitness(witnessDir, d, engines)
		if err != nil {
			fmt.Fprintln(stderr, "stress:", err)
			return 2
		}
		for _, p := range paths {
			fmt.Fprintln(stdout, "witness:", p)
		}
	}
	return 1
}
