package benchfmt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const rawBench = `goos: linux
goarch: amd64
pkg: dircc/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineScheduleRun 	15433944	        77.80 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	dircc/internal/sim	1.283s
pkg: dircc/internal/network
BenchmarkNetworkSend-4 	 8246545	       153.0 ns/op	      24 B/op	       1 allocs/op
ok  	dircc/internal/network	1.413s
`

func TestParseBench(t *testing.T) {
	s, err := ParseBench(strings.NewReader(rawBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(s.Benchmarks))
	}
	r := s.Find("BenchmarkEngineScheduleRun")
	if r == nil {
		t.Fatal("BenchmarkEngineScheduleRun not found")
	}
	if r.NsPerOp != 77.80 || r.AllocsPerOp != 0 || r.Package != "dircc/internal/sim" {
		t.Errorf("bad parse: %+v", r)
	}
	// The -GOMAXPROCS suffix must be stripped so runs on different
	// machines compare by name.
	r = s.Find("BenchmarkNetworkSend")
	if r == nil {
		t.Fatal("BenchmarkNetworkSend not found (suffix not stripped?)")
	}
	if r.NsPerOp != 153.0 || r.BytesPerOp != 24 || r.AllocsPerOp != 1 || r.Iterations != 8246545 {
		t.Errorf("bad parse: %+v", r)
	}
}

// TestParseBenchMedian: a benchmark run several times is reported as
// the median of its runs, metric by metric, wherever its slowest or
// last run falls.
func TestParseBenchMedian(t *testing.T) {
	const runs = `pkg: dircc/internal/sim
BenchmarkEngineScheduleRun-2 	100	 19.0 ns/op	 0 B/op	 0 allocs/op
BenchmarkEngineScheduleRun-2 	300	 95.0 ns/op	 8 B/op	 1 allocs/op
BenchmarkEngineScheduleRun-2 	200	 18.0 ns/op	 0 B/op	 0 allocs/op
BenchmarkEngineTinyDrain-2 	10	 40.0 ns/op	 0 B/op	 0 allocs/op
BenchmarkEngineTinyDrain-2 	10	 50.0 ns/op	 0 B/op	 0 allocs/op
BenchmarkEngineScheduleRun-2 	400	 21.0 ns/op	 0 B/op	 0 allocs/op
BenchmarkEngineScheduleRun-2 	500	 90.0 ns/op	 0 B/op	 0 allocs/op
`
	s, err := ParseBench(strings.NewReader(runs))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(s.Benchmarks))
	}
	if r := s.Find("BenchmarkEngineScheduleRun"); r.NsPerOp != 21 || r.AllocsPerOp != 0 || r.BytesPerOp != 0 || r.Iterations != 300 {
		t.Errorf("median of five runs: %+v, want 21 ns/op, 0 B/op, 0 allocs/op, 300 iterations", r)
	}
	if r := s.Find("BenchmarkEngineTinyDrain"); r.NsPerOp != 45 {
		t.Errorf("median of two runs: %v ns/op, want 45", r.NsPerOp)
	}
}

func TestLoadFormats(t *testing.T) {
	dir := t.TempDir()

	raw := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(raw, []byte(rawBench), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Benchmarks) != 2 || s2.Find("BenchmarkNetworkSend").NsPerOp != 153.0 {
		t.Errorf("raw load: %+v", s2)
	}

	if _, err := Load(filepath.Join(dir, "missing.out")); err == nil {
		t.Error("loading a missing file must fail")
	}
	for name, content := range map[string]string{
		"empty.out":  "",
		"failed.out": "FAIL\tdircc/internal/sim [build failed]\n",
		"json.out":   `{"benchmarks": [{"name": "BenchmarkX", "ns_per_op": 1}]}`,
	} {
		bad := filepath.Join(dir, name)
		if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bad); err == nil {
			t.Errorf("loading %s, which holds no benchmark result line, must fail", name)
		}
	}
}

func TestDiff(t *testing.T) {
	old := &Snapshot{Benchmarks: []Result{
		{Name: "A", NsPerOp: 100},
		{Name: "Removed", NsPerOp: 50},
	}}
	new := &Snapshot{Benchmarks: []Result{
		{Name: "A", NsPerOp: 125},
		{Name: "Added", NsPerOp: 10},
	}}
	deltas := Diff(old, new)
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3", len(deltas))
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if pct := byName["A"].PctNs(); pct < 0.249 || pct > 0.251 {
		t.Errorf("A delta = %v, want 0.25", pct)
	}
	if d := byName["Added"]; d.Old != nil || d.New == nil || d.PctNs() != 0 {
		t.Errorf("added benchmark must not gate: %+v", d)
	}
	if d := byName["Removed"]; d.New != nil || d.PctNs() != 0 {
		t.Errorf("removed benchmark must not gate: %+v", d)
	}

	var sb strings.Builder
	WriteTable(&sb, deltas)
	out := sb.String()
	for _, want := range []string{"added", "removed", "+25.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
