package check

import (
	"runtime"
	"testing"
)

// BenchmarkCheckRun explores one Grid() entry per sub-benchmark, from
// the initial state to the end of its space, and reports the cost per
// explored transition: SCI, whose canonical state is the largest of the
// list engines, and Dir_iTree_k. Both are wide entries, so each
// iteration replays a few thousand paths.
func BenchmarkCheckRun(b *testing.B) {
	for _, name := range []string{"sci-p4-wide", "tree1x2-p4-wide"} {
		cfg := gridEntry(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			transitions := 0
			for i := 0; i < b.N; i++ {
				st, v, err := Run(cfg)
				if err != nil || v != nil {
					b.Fatalf("%s: %v %v", name, err, v)
				}
				transitions += st.Transitions
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(transitions), "ns/transition")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(transitions), "allocs/transition")
		})
	}
}

// gridEntry returns the configuration of the Grid() entry called name.
func gridEntry(tb testing.TB, name string) Config {
	tb.Helper()
	for _, e := range Grid() {
		if e.Config.Name == name {
			return e.Config
		}
	}
	tb.Fatalf("no grid entry %s", name)
	return Config{}
}
