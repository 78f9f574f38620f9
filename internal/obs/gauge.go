package obs

import "sync/atomic"

// Gauge exposes live execution counters from a running simulation to
// concurrent readers (the telemetry HTTP handler scrapes them from
// another goroutine). The simulation goroutine publishes with Note;
// readers use the atomic accessors. A Gauge never influences the
// simulation — it is written from the kernel's tick hook and holds
// nothing the protocol can observe.
//
// Writes are decimated: Note stores only every noteEvery calls, so the
// per-event cost is one local counter increment on the skipped calls.
// Telemetry scrapes are ~1 Hz; staleness of a few hundred events is
// invisible at that horizon.
type Gauge struct {
	cycles atomic.Uint64
	events atomic.Uint64
	depth  atomic.Uint64
	done   atomic.Bool

	skip int
}

// noteEvery is the publication decimation factor.
const noteEvery = 256

// Note publishes the current simulated cycle, events executed so far,
// and event-queue depth. Called from the simulation goroutine only.
func (g *Gauge) Note(now uint64, executed uint64, pending int) {
	g.skip++
	if g.skip < noteEvery {
		return
	}
	g.skip = 0
	g.cycles.Store(now)
	g.events.Store(executed)
	g.depth.Store(uint64(pending))
}

// Finish publishes the final counters unconditionally and marks the
// run complete.
func (g *Gauge) Finish(now uint64, executed uint64) {
	g.cycles.Store(now)
	g.events.Store(executed)
	g.depth.Store(0)
	g.done.Store(true)
}

// Cycles returns the last published simulated clock.
func (g *Gauge) Cycles() uint64 { return g.cycles.Load() }

// Events returns the last published executed-event count.
func (g *Gauge) Events() uint64 { return g.events.Load() }

// QueueDepth returns the last published event-queue depth.
func (g *Gauge) QueueDepth() uint64 { return g.depth.Load() }

// Done reports whether Finish has been called.
func (g *Gauge) Done() bool { return g.done.Load() }
