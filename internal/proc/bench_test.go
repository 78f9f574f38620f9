package proc

import (
	"testing"

	"dircc/internal/coherent"
	"dircc/internal/protocol/fullmap"
)

// BenchmarkEnvRoundTrip times one Env call's round trip through the
// simulator: two processors call Compute(1) in turns, and each call
// hands its request to the kernel, which schedules a one-cycle event
// and resumes the processor from it. One op is one Env call.
func BenchmarkEnvRoundTrip(b *testing.B) {
	m, err := coherent.NewMachine(coherent.DefaultConfig(2), fullmap.New())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := Run(m, func(e Env) {
		for i := e.ID(); i < b.N; i += e.NProcs() {
			e.Compute(1)
		}
	}); err != nil {
		b.Fatal(err)
	}
}
