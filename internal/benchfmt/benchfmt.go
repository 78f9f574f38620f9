// Package benchfmt parses raw `go test -bench` output so cmd/benchdiff
// can compare two runs. Only the standard library is used; the parser
// understands the stable subset of the benchmark text format (name,
// iterations, ns/op, B/op, allocs/op).
package benchfmt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measured performance.
type Result struct {
	// Name is the benchmark name without the -GOMAXPROCS suffix
	// (BenchmarkNetworkSend, not BenchmarkNetworkSend-4).
	Name string
	// Package is the import path, when known.
	Package string
	// Iterations is b.N for the recorded run (0 when unknown).
	Iterations int64
	// NsPerOp is nanoseconds per operation.
	NsPerOp float64
	// BytesPerOp is heap bytes allocated per operation (-benchmem).
	BytesPerOp float64
	// AllocsPerOp is heap allocations per operation (-benchmem).
	AllocsPerOp float64
}

// Snapshot is the set of benchmark results from one input.
type Snapshot struct {
	// Benchmarks holds the results, sorted by name.
	Benchmarks []Result
}

// Find returns the result with the given name, or nil.
func (s *Snapshot) Find(name string) *Result {
	for i := range s.Benchmarks {
		if s.Benchmarks[i].Name == name {
			return &s.Benchmarks[i]
		}
	}
	return nil
}

// sortResults orders benchmarks by name for deterministic output.
func (s *Snapshot) sortResults() {
	sort.Slice(s.Benchmarks, func(i, j int) bool {
		return s.Benchmarks[i].Name < s.Benchmarks[j].Name
	})
}

// ParseBench reads raw `go test -bench` output. Lines it does not
// recognize (PASS, ok, goos/goarch headers) are skipped; "pkg:" lines
// set the package for the benchmarks that follow. A benchmark run more
// than once (-count, or several runs appended to one file) is reported
// as the median of its runs, metric by metric, so one slow run on a
// noisy host does not decide a comparison.
func ParseBench(r io.Reader) (*Snapshot, error) {
	s := &Snapshot{}
	runs := map[string][]Result{}
	sc := bufio.NewScanner(r)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, err := parseBenchLine(line)
		if err != nil {
			return nil, err
		}
		res.Package = pkg
		if runs[res.Name] == nil {
			s.Benchmarks = append(s.Benchmarks, res)
		}
		runs[res.Name] = append(runs[res.Name], res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range s.Benchmarks {
		rs := runs[s.Benchmarks[i].Name]
		if len(rs) == 1 {
			continue
		}
		res := &s.Benchmarks[i]
		res.Iterations = int64(median(rs, func(r Result) float64 { return float64(r.Iterations) }))
		res.NsPerOp = median(rs, func(r Result) float64 { return r.NsPerOp })
		res.BytesPerOp = median(rs, func(r Result) float64 { return r.BytesPerOp })
		res.AllocsPerOp = median(rs, func(r Result) float64 { return r.AllocsPerOp })
	}
	s.sortResults()
	return s, nil
}

// median returns the median of one metric over runs: the middle value,
// or the mean of the two middle values of an even count.
func median(runs []Result, metric func(Result) float64) float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = metric(r)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// parseBenchLine parses one result line:
//
//	BenchmarkNetworkSend-4   8550280   139.8 ns/op   24 B/op   1 allocs/op
func parseBenchLine(line string) (Result, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return Result{}, fmt.Errorf("benchfmt: short benchmark line %q", line)
	}
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("benchfmt: bad iteration count in %q", line)
	}
	res := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	return res, nil
}

// Load reads raw `go test -bench` output from path; "-" reads stdin.
// An input without a single benchmark result is an error, so a failed
// or empty run cannot pass a comparison by having nothing to compare.
func Load(path string) (*Snapshot, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	s, err := ParseBench(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchfmt: %s: no benchmark results", path)
	}
	return s, nil
}

// Delta is one benchmark's old→new comparison.
type Delta struct {
	Name     string
	Old, New *Result // either may be nil (added/removed benchmark)
}

// PctNs returns the relative ns/op change (+0.10 = 10% slower), or 0
// when either side is missing or zero.
func (d Delta) PctNs() float64 {
	if d.Old == nil || d.New == nil || d.Old.NsPerOp == 0 {
		return 0
	}
	return d.New.NsPerOp/d.Old.NsPerOp - 1
}

// Diff matches two snapshots by benchmark name, sorted by name.
func Diff(old, new *Snapshot) []Delta {
	names := map[string]bool{}
	for _, r := range old.Benchmarks {
		names[r.Name] = true
	}
	for _, r := range new.Benchmarks {
		names[r.Name] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	out := make([]Delta, 0, len(sorted))
	for _, n := range sorted {
		out = append(out, Delta{Name: n, Old: old.Find(n), New: new.Find(n)})
	}
	return out
}

// WriteTable renders the deltas as an aligned comparison table.
func WriteTable(w io.Writer, deltas []Delta) {
	fmt.Fprintf(w, "%-36s %12s %12s %8s %10s %10s %8s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old B/op", "new B/op", "old al", "new al")
	for _, d := range deltas {
		row := fmt.Sprintf("%-36s", d.Name)
		switch {
		case d.Old == nil:
			fmt.Fprintf(w, "%s %12s %12.1f %8s %10s %10.0f %8s %8.0f\n",
				row, "-", d.New.NsPerOp, "added", "-", d.New.BytesPerOp, "-", d.New.AllocsPerOp)
		case d.New == nil:
			fmt.Fprintf(w, "%s %12.1f %12s %8s %10.0f %10s %8.0f %8s\n",
				row, d.Old.NsPerOp, "-", "removed", d.Old.BytesPerOp, "-", d.Old.AllocsPerOp, "-")
		default:
			fmt.Fprintf(w, "%s %12.1f %12.1f %+7.1f%% %10.0f %10.0f %8.0f %8.0f\n",
				row, d.Old.NsPerOp, d.New.NsPerOp, 100*d.PctNs(),
				d.Old.BytesPerOp, d.New.BytesPerOp, d.Old.AllocsPerOp, d.New.AllocsPerOp)
		}
	}
}
