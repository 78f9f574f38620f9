package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const oldBench = `goos: linux
BenchmarkAccess-4 	1000000	       100.0 ns/op	       0 B/op	       0 allocs/op
`

const newBench = `goos: linux
BenchmarkAccess-4 	1000000	       150.0 ns/op	       0 B/op	       0 allocs/op
`

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func runDiff(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrors: malformed invocations exit 2.
func TestUsageErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no-inputs":     {},
		"three-inputs":  {"a", "b", "c"},
		"unknown-flag":  {"-bogus", "a"},
		"bad-threshold": {"-threshold", "x", "a", "b"},
	} {
		if code, _, errOut := runDiff(t, args...); code != 2 || errOut == "" {
			t.Errorf("%s: exit %d (stderr %q), want 2 with a diagnostic", name, code, errOut)
		}
	}
}

// TestInputErrors: unreadable inputs exit 1.
func TestInputErrors(t *testing.T) {
	if code, _, _ := runDiff(t, filepath.Join(t.TempDir(), "missing.out")); code != 1 {
		t.Errorf("missing input: exit %d, want 1", code)
	}
	if code, _, _ := runDiff(t, writeBench(t, "old.txt", oldBench), writeBench(t, "empty.out", "PASS\n")); code != 1 {
		t.Errorf("input without benchmark results: exit %d, want 1", code)
	}
}

// TestGate: the perf gate exits 1 only when armed and only past the
// threshold.
func TestGate(t *testing.T) {
	old := writeBench(t, "old.txt", oldBench)
	cur := writeBench(t, "new.txt", newBench)
	if code, out, _ := runDiff(t, old, cur); code != 0 || !strings.Contains(out, "BenchmarkAccess") {
		t.Errorf("ungated regression: exit %d (stdout %q), want 0 with a table", code, out)
	}
	if code, _, errOut := runDiff(t, "-gate", old, cur); code != 1 || !strings.Contains(errOut, "regressed") {
		t.Errorf("gated 50%% regression: exit %d (stderr %q), want 1", code, errOut)
	}
	if code, _, _ := runDiff(t, "-gate", "-threshold", "0.9", old, cur); code != 0 {
		t.Errorf("gated within threshold: exit %d, want 0", code)
	}
	if code, _, _ := runDiff(t, old); code != 0 {
		t.Errorf("single input: exit %d, want 0", code)
	}
}
