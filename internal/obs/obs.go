// Package obs is the simulator's observability layer: a structured
// protocol event trace, a time-series sampler over the statistics
// counters, a stall watchdog for protocol-deadlock diagnosis, and a
// sink fan-out for in-process consumers of the event stream (latency
// attribution).
//
// The layer is designed around one invariant: when disabled it costs
// nothing on the hot path. The machine holds a single *Probe pointer
// that is nil by default, and builds a structured event only when a
// trace or sink wants one (WantsEvents): every emission site is a
// plain flag check with no interface dispatch and no argument
// evaluation. A second invariant is that probes never perturb the
// simulation: no component schedules events, so enabling a trace
// cannot change a single cycle count. The sampler and watchdog
// piggyback on the kernel's tick hook (see Probe.Tick), which keeps
// the event queue — and therefore the simulated timeline — bit-for-bit
// identical with probes on or off.
//
// Nothing here depends on which simulation kernel runs: both feed a
// probe through the same calls — Finalize, with events in the global
// (at, seq) order, Tick, and NetSend.
package obs

// Sink consumes the structured event stream in capture order without
// buffering it: each Event is handed over as it happens. Sinks run on
// the simulation goroutine and must never block or schedule simulated
// events. The Trace is the buffering special case (kept as a concrete
// field so existing exporters keep working); everything else — latency
// attribution — attaches here.
type Sink interface {
	Event(e Event)
}

// Probe bundles the enabled observability components. Any field may be
// nil; a Probe with all components nil is valid but pointless — leave
// the machine's probe pointer nil instead.
//
// The Probe owns message-ID assignment and per-block invalidation-wave
// numbering so that every attached consumer (Trace and Sinks alike)
// sees identically-tagged events.
type Probe struct {
	Trace    *Trace
	Sampler  *Sampler
	Watchdog *Watchdog
	// Sinks receive every structured event the Trace would record.
	Sinks []Sink

	nextID int64
	waves  map[uint64]int
}

// WantsEvents reports whether any consumer wants structured events.
// The machine builds events only when it does.
func (p *Probe) WantsEvents() bool { return p.Trace != nil || len(p.Sinks) > 0 }

// Tick is called from the simulation kernel's tick hook with the
// (possibly advanced) simulated clock: before every event on the
// sequential kernel, after every sub-round on the sharded one. It
// drives the lazy sampler and the stall check without scheduling
// anything itself.
func (p *Probe) Tick(now uint64) {
	if p.Sampler != nil {
		p.Sampler.Advance(now)
	}
	if p.Watchdog != nil {
		p.Watchdog.Check(now)
	}
}

// Finalize applies the order-dependent parts of an emission — message
// ID assignment, wave tagging, the wave counter bump — and fans the
// event out to the trace and sinks. Callers hand over events in the
// global (at, seq) order: the sharded machine buffers Phase-P
// emissions per lane and finalizes each at its merge position, so the
// stream is byte-identical to the sequential run. idSlot, when
// non-nil, receives the assigned message ID (sends only); it points
// into the in-flight Msg so the delivery side can echo the ID without
// any closure allocation.
func (p *Probe) Finalize(e Event, idSlot *int64) {
	switch e.Kind {
	case KindSend:
		p.nextID++
		e.ID = p.nextID
		if idSlot != nil {
			*idSlot = e.ID
		}
		// Only gate-serialized wave members carry a wave tag; Replace_INV
		// teardowns are replacement-driven and orthogonal to write waves.
		if e.Type == "Inv" || e.Type == "Update" {
			e.Wave = p.waves[e.Block]
		}
	case KindHomeStart:
		// A gated write starting is the serialization point that opens a
		// new invalidation wave on the block.
		if e.Type == "WriteReq" {
			if p.waves == nil {
				p.waves = make(map[uint64]int)
			}
			p.waves[e.Block]++
		}
	}
	if p.Trace != nil {
		p.Trace.add(e)
	}
	for _, s := range p.Sinks {
		s.Event(e)
	}
}

// NetSend records network-level transport timing for one message:
// start is the injection instant, arrive the computed delivery instant,
// and unloaded the latency an idle network would have given it. The
// difference feeds the sampler's contention column.
func (p *Probe) NetSend(start, arrive, unloaded uint64) {
	if p.Sampler != nil {
		p.Sampler.noteNet(arrive - start - min(unloaded, arrive-start))
	}
}
