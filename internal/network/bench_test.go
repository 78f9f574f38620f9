package network

import (
	"testing"

	"dircc/internal/sim"
	"dircc/internal/topology"
)

// BenchmarkNetworkSend measures the host-side cost of transporting one
// message across the paper's 32-node hypercube, including the engine
// events that carry it. Send sits on the hot path of every coherence
// message, so neither route computation nor delivery may allocate: each
// destination's delivery handler is built once, as the coherence
// machine's messages are.
func BenchmarkNetworkSend(b *testing.B) {
	eng := sim.NewEngine()
	n, err := New(eng, topology.MustHypercube(5), DefaultConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	deliver := make([]*counter, 32)
	for d := range deliver {
		deliver[d] = &counter{n: n, dst: topology.NodeID(d)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := topology.NodeID(i & 31)
		dst := topology.NodeID((i*7 + 3) & 31)
		n.Send("Data", src, dst, 8, deliver[dst])
		// Drain periodically so the pending-event queue stays bounded.
		if i&1023 == 1023 {
			if err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}
