package sim

import "testing"

// TestScheduleRunZeroAllocs asserts PR 1's hot-path guarantee directly:
// once the heap's backing array has grown, a schedule+pop cycle
// performs zero allocations — with the probe hook disabled (the
// default) and with a probe installed. The observability layer must be
// free when off and allocation-free per event when on.
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
			var fired int
			fn := func() { fired++ }
			// Warm the heap's backing array.
			for i := 0; i < 64; i++ {
				e.Schedule(Time(i%7+1), Func(fn))
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				for i := 0; i < 32; i++ {
					e.Schedule(Time(i%5+1), Func(fn))
				}
				if err := e.Run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("schedule+run allocates %.1f times per cycle, want 0", allocs)
			}
		})
	}
}
