package sim

import "testing"

// BenchmarkEngineScheduleRun measures the steady-state cost of one
// schedule+pop cycle with a realistically deep queue. The engine is the
// innermost loop of every simulation, so this must be allocation-free:
// queue storage is reused across iterations and nothing escapes per
// event.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	const depth = 64 // pending events, roughly one per in-flight message
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			// Vary the delay so events interleave in the queue instead of
			// draining in insertion order.
			e.Schedule(Time(remaining%7+1), Func(tick))
		}
	}
	for i := 0; i < depth && remaining > 0; i++ {
		remaining--
		e.Schedule(Time(i%7+1), Func(tick))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineTinyDrain measures the model checker's kernel use: it
// resets one engine before every replay, and a replay step schedules a
// few events and drains them. Reset on an empty queue must stay O(1)
// and the cycle allocation-free.
func BenchmarkEngineTinyDrain(b *testing.B) {
	e := NewEngine()
	var fired int
	fn := Func(func() { fired++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Schedule(1, fn)
		e.Schedule(3, fn)
		e.Schedule(3, fn)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedScheduleRun measures the same schedule+pop cycle on
// the time-windowed parallel kernel's intra-shard hot path: every
// event reschedules onto its own node, so the work stays inside one
// lane's queue and never crosses the mailbox. Like the sequential
// engine, this path must be allocation-free in steady state — the
// per-lane provisional queues and act logs are reused across waves.
func BenchmarkShardedScheduleRun(b *testing.B) {
	const nodes = 16
	s := NewSharded(nodes, 4)
	// Each node owns its chain and counter, so lanes never share state
	// during the parallel phase.
	remaining := make([]int64, nodes)
	for n := range remaining {
		remaining[n] = int64(b.N) / nodes
	}
	ticks := make([]func(), nodes)
	for n := 0; n < nodes; n++ {
		n := n
		ticks[n] = func() {
			if r := remaining[n]; r > 0 {
				remaining[n] = r - 1
				s.ScheduleNode(n, Time(r%7+1), Func(ticks[n]))
			}
		}
	}
	for n := 0; n < nodes; n++ {
		s.ScheduleNode(n, Time(n%7+1), Func(ticks[n]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
