package sim

import "testing"

// BenchmarkEngineScheduleRun measures the steady-state cost of one
// schedule+pop cycle with a realistically deep queue. The engine is the
// innermost loop of every simulation, so this must be allocation-free:
// heap storage is reused across iterations and nothing escapes per
// event.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	const depth = 64 // pending events, roughly one per in-flight message
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			// Vary the delay so events interleave in the heap instead of
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

// BenchmarkShardedScheduleRun measures the same schedule+pop cycle on
// the time-windowed parallel kernel's intra-shard hot path: every
// event reschedules onto its own node, so the work stays inside one
// lane's heap and never crosses the mailbox. Like the sequential
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

// benchEmitSink is a minimal EmitReplayer: per-lane payload buffers
// drained by the coordinator in merge order, mirroring the coherent
// machine's lane event buffers but without any event construction, so
// the benchmark isolates the kernel's emit seam.
type benchEmitSink struct {
	bufs [][]uint64
	sum  uint64
}

func (s *benchEmitSink) ReplayEmit(lane, idx int) {
	b := s.bufs[lane]
	s.sum += b[idx]
	if idx == len(b)-1 {
		s.bufs[lane] = b[:0]
	}
}

// BenchmarkShardedScheduleRunEmit is BenchmarkShardedScheduleRun with
// every fired event additionally buffering one observability emission
// (lane-local payload append + LogEmitAt) that the coordinator replays
// at the event's global (at, seq) merge position. The delta against
// the plain sharded benchmark is the per-event cost of shard-safe
// event observability. Like the paths it rides on, it must stay
// allocation-free in steady state: the per-lane buffers are reset and
// reused after each window's replay.
func BenchmarkShardedScheduleRunEmit(b *testing.B) {
	const nodes = 16
	s := NewSharded(nodes, 4)
	sink := &benchEmitSink{bufs: make([][]uint64, s.Shards())}
	s.SetEmitReplayer(sink)
	remaining := make([]int64, nodes)
	for n := range remaining {
		remaining[n] = int64(b.N) / nodes
	}
	ticks := make([]func(), nodes)
	for n := 0; n < nodes; n++ {
		n := n
		lane := s.LaneOf(n)
		ticks[n] = func() {
			if r := remaining[n]; r > 0 {
				remaining[n] = r - 1
				sink.bufs[lane] = append(sink.bufs[lane], uint64(r))
				s.LogEmitAt(n)
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
	if sink.sum == 0 && b.N > nodes {
		b.Fatal("no emissions replayed")
	}
}
