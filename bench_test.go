package dircc

import "testing"

// BenchmarkEngineOverhead measures the raw simulator event throughput
// (host-side cost, not a paper figure). The paper's numbers are checked
// by TestClaims.
func BenchmarkEngineOverhead(b *testing.B) {
	cfg := DefaultConfig(8)
	m, err := NewMachine(cfg, mustEngine("T4"))
	if err != nil {
		b.Fatal(err)
	}
	addr := m.Alloc(8)
	b.ResetTimer()
	done := 0
	var issue func()
	issue = func() {
		if done >= b.N {
			return
		}
		done++
		m.Access(0, addr, false, 0, func(uint64) { issue() })
	}
	issue()
	if err := m.Quiesce(); err != nil {
		b.Fatal(err)
	}
}

func mustEngine(name string) Engine {
	e, err := NewEngine(name)
	if err != nil {
		panic(err)
	}
	return e
}
