package sim

import "testing"

// TestScheduleRunZeroAllocs asserts PR 1's hot-path guarantee directly:
// once the queue's node pool and overflow heap have grown, a
// schedule+pop cycle performs zero allocations — with the probe hook
// disabled (the default) and with a probe installed. The observability
// layer must be free when off and allocation-free per event when on.
// Each cycle runs past the calendar's horizon: some delays exceed it,
// and a chain of one-cycle hops visits more distinct instants than the
// calendar has buckets, so its wheel turns more than once per cycle.
func TestScheduleRunZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		probe func(Time)
	}{
		{"no probe", nil},
		{"probe installed", func(Time) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.SetTick(tc.probe)
			var fired, hops int
			fn := func() { fired++ }
			var hop func()
			hop = func() {
				if hops > 0 {
					hops--
					e.Schedule(1, Func(hop))
				}
			}
			cycle := func() {
				for i := 0; i < 32; i++ {
					e.Schedule(Time(i%5+1), Func(fn))
				}
				for i := 0; i < 4; i++ {
					e.Schedule(Time(calBuckets+1+300*i), Func(fn))
				}
				hops = calBuckets + 500
				e.Schedule(1, Func(hop))
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
			}
			cycle() // warm the node pool and the overflow heap
			allocs := testing.AllocsPerRun(100, cycle)
			if allocs != 0 {
				t.Fatalf("schedule+run allocates %.1f times per cycle, want 0", allocs)
			}
		})
	}
}
