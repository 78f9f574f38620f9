package protocol_test

import (
	"fmt"
	"testing"

	"dircc/internal/coherent"
	"dircc/internal/core"
	"dircc/internal/protocol/fullmap"
	"dircc/internal/protocol/list"
	"dircc/internal/protocol/ptest"
)

// BenchmarkMissRoundTrip times the miss path end to end on the real
// engines, one round of misses per op: readers read a block in turn and
// a writer then writes it, each reference drained to completion (see
// ptest.Refs.Cycle). The full-map round is the one its allocation test
// pins: six reads, the first recalling the dirty copy, and a write that
// invalidates six sharers. The Dir4Tree2 round on P=32 has 26 reads
// with case-3 and case-4 root handoffs and a write whose wave covers
// four paired roots. Beside the per-round figures it reports ns per
// miss. Until a cache holds all its frames, an invalidated frame is not
// reused (Cache.Victim takes a fresh one), so B/op is not zero.
func BenchmarkMissRoundTrip(b *testing.B) {
	for _, c := range []struct {
		name    string
		eng     func() coherent.Engine
		procs   int
		readers int
	}{
		{"fm", func() coherent.Engine { return fullmap.New() }, 8, 6},
		{"Dir4Tree2", func() coherent.Engine { return core.New(4, 2) }, 32, 26},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, err := coherent.NewMachine(coherent.DefaultConfig(c.procs), c.eng())
			if err != nil {
				b.Fatal(err)
			}
			refs := ptest.NewRefs(b, m)
			cycle := refs.Cycle(ptest.Nodes(0, c.readers), coherent.NodeID(c.procs-1))
			for range 3 {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				cycle()
			}
			misses := float64(b.N * (c.readers + 1))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/misses, "ns/miss")
		})
	}
}

// BenchmarkPrepare times binding an engine to a machine, which the model
// checker does once per replay (Machine.Reset): the per-node state the
// tree and list engines allocate up front, at the checker's P=4 and at
// P=64.
func BenchmarkPrepare(b *testing.B) {
	for _, c := range []struct {
		name string
		eng  func() coherent.Engine
	}{
		{"Dir4Tree2", func() coherent.Engine { return core.New(4, 2) }},
		{"stp", func() coherent.Engine { return core.NewSTP() }},
		{"sll", func() coherent.Engine { return list.NewSLL() }},
	} {
		for _, procs := range []int{4, 64} {
			b.Run(fmt.Sprintf("%s/P=%d", c.name, procs), func(b *testing.B) {
				e := c.eng()
				m, err := coherent.NewMachine(coherent.DefaultConfig(procs), e)
				if err != nil {
					b.Fatal(err)
				}
				p := e.(coherent.Preparer)
				b.ReportAllocs()
				for range b.N {
					p.Prepare(m)
				}
			})
		}
	}
}
