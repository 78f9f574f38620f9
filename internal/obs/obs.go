// Package obs is the simulator's observability layer: a structured
// protocol event trace, a time-series sampler over the statistics
// counters, a stall watchdog for protocol-deadlock diagnosis, and a
// sink fan-out for in-process consumers of the event stream (latency
// attribution, live telemetry).
//
// The layer is designed around one invariant: when disabled it costs
// nothing on the hot path. The machine holds a single *Probe pointer
// that is nil by default; every instrumentation site is a plain nil
// check with no interface dispatch and no argument evaluation (label
// strings are only built behind Tracing()-style guards). A second
// invariant is that probes never perturb the simulation: no component
// schedules events, so enabling a trace cannot change a single cycle
// count. The sampler and watchdog piggyback on events that already
// fire (see Probe.Tick), which keeps the event queue — and therefore
// the simulated timeline — bit-for-bit identical with probes on or
// off.
package obs

// Sink consumes the structured event stream in capture order without
// buffering it: each Event is handed over as it happens. Sinks run on
// the simulation goroutine and must never block or schedule simulated
// events. The Trace is the buffering special case (kept as a concrete
// field so existing exporters keep working); everything else — latency
// attribution, live counters — attaches here.
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
	// Gauge, when set, is fed live execution counters from the engine
	// tick (cycle, events executed, queue depth) for telemetry scrapes.
	Gauge *Gauge

	nextID int64
	waves  map[uint64]int

	// route, when set, diverts every structured emission to the sharded
	// machine's lane-local buffers instead of finalizing inline: during
	// Phase P the Probe's methods run concurrently on lane goroutines,
	// so nothing order-dependent (message IDs, wave tags, watchdog
	// state, the trace itself) may be touched there. The buffered
	// events are finalized one by one on the coordinator, at their
	// exact position in the global (at, seq) merge — see Finalize.
	// Direct watchdog touches (TxnEnd/Progress) are suppressed under a
	// route; the shard coordinator drives progress and stall checks.
	route func(node int, e Event, idSlot *int64)
}

// SetRoute installs (or, with nil, removes) the sharded emission
// router. Must not be called while a simulation is running.
func (p *Probe) SetRoute(fn func(node int, e Event, idSlot *int64)) { p.route = fn }

// active reports whether any consumer wants structured events.
func (p *Probe) active() bool { return p.Trace != nil || len(p.Sinks) > 0 }

// emit hands an event to the trace and every sink.
func (p *Probe) emit(e Event) {
	if p.Trace != nil {
		p.Trace.add(e)
	}
	for _, s := range p.Sinks {
		s.Event(e)
	}
}

// Tick is called by the simulation kernel once per fired event, with
// the (possibly advanced) simulated clock. It drives the lazy sampler
// and the stall check without scheduling anything itself.
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
// event out to the trace and sinks. In sequential runs every emission
// finalizes inline; in sharded runs the route hook buffers Phase-P
// emissions per lane and the coordinator calls Finalize for each at
// its position in the global (at, seq) merge, so the finalized stream
// is byte-identical to the sequential run. idSlot, when non-nil,
// receives the assigned message ID (sends only); it points into the
// in-flight Msg so the delivery side can echo the ID without any
// closure allocation.
func (p *Probe) Finalize(e Event, idSlot *int64) {
	if !p.active() {
		return
	}
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
	p.emit(e)
}

// MsgSend records a coherence message entering the network. idSlot,
// when non-nil, receives the identifier the matching MsgDeliver must
// echo (it is left untouched when no trace or sink is attached); in
// sharded runs the ID is only assigned at the emission's merge
// position, which is why the slot replaces a return value. dir marks
// directory-bound messages (acks and requests addressed to the home's
// directory logic rather than a cache). Invalidation-type messages are
// tagged with the block's current write wave.
func (p *Probe) MsgSend(now uint64, typ string, src, dst int, block uint64, requester int, dir bool, idSlot *int64) {
	e := Event{
		At: now, Kind: KindSend, Type: typ, Src: src, Dst: dst,
		Block: block, Req: requester, Dir: dir,
	}
	if p.route != nil {
		p.route(src, e, idSlot)
		return
	}
	p.Finalize(e, idSlot)
}

// MsgDeliver records the arrival of the message identified by id. In
// sharded runs deliveries fire at least one sub-round after their send
// was finalized, so reading the ID out of the message is race-free.
func (p *Probe) MsgDeliver(now uint64, id int64, typ string, src, dst int, block uint64, dir bool) {
	e := Event{At: now, Kind: KindDeliver, Type: typ, Src: src, Dst: dst, Block: block, ID: id, Dir: dir}
	if p.route != nil {
		p.route(dst, e, nil)
		return
	}
	p.Finalize(e, nil)
}

// NetSend records network-level transport timing for one message:
// start is the injection instant, arrive the computed delivery instant,
// and unloaded the latency an idle network would have given it. The
// difference feeds the sampler's contention column.
func (p *Probe) NetSend(start, arrive, unloaded uint64) {
	if p.Sampler != nil {
		p.Sampler.noteNet(arrive - start - min64(unloaded, arrive-start))
	}
}

// TxnStart records a processor miss transaction beginning at a node.
func (p *Probe) TxnStart(now uint64, node int, block uint64, write bool) {
	e := Event{At: now, Kind: KindTxnStart, Src: node, Dst: node, Block: block, Write: write}
	if p.route != nil {
		p.route(node, e, nil)
		return
	}
	p.Finalize(e, nil)
}

// TxnEnd records a miss transaction completing. It counts as forward
// progress for the watchdog (in sharded runs the coordinator feeds the
// watchdog from the per-lane progress fold instead).
func (p *Probe) TxnEnd(now uint64, node int, block uint64, write bool) {
	e := Event{At: now, Kind: KindTxnEnd, Src: node, Dst: node, Block: block, Write: write}
	if p.route != nil {
		p.route(node, e, nil)
		return
	}
	p.Finalize(e, nil)
	if p.Watchdog != nil {
		p.Watchdog.Progress(now)
	}
}

// Progress marks processor forward progress that is not a miss
// completion (cache hits retiring).
func (p *Probe) Progress(now uint64) {
	if p.route != nil {
		return // the shard coordinator folds lane progress instead
	}
	if p.Watchdog != nil {
		p.Watchdog.Progress(now)
	}
}

// CacheState records a cache-line state transition at a node.
func (p *Probe) CacheState(now uint64, node int, block uint64, from, to string) {
	e := Event{At: now, Kind: KindCacheState, Src: node, Dst: node, Block: block, Label: from + "->" + to}
	if p.route != nil {
		p.route(node, e, nil)
		return
	}
	p.Finalize(e, nil)
}

// DirState records a directory transition at a block's home node. The
// label is protocol-specific ("uncached->shared", "merge l2", ...);
// callers must only build it when tracing is enabled.
func (p *Probe) DirState(now uint64, home int, block uint64, label string) {
	e := Event{At: now, Kind: KindDirState, Src: home, Dst: home, Block: block, Label: label}
	if p.route != nil {
		p.route(home, e, nil)
		return
	}
	p.Finalize(e, nil)
}

// GateWait records a gated request queuing behind a busy home gate.
func (p *Probe) GateWait(now uint64, home int, block uint64, typ string) {
	e := Event{At: now, Kind: KindGateWait, Type: typ, Src: home, Dst: home, Block: block}
	if p.route != nil {
		p.route(home, e, nil)
		return
	}
	p.Finalize(e, nil)
}

// HomeStart records the home beginning to process a gated request.
// The wave-counter bump for gated writes happens in Finalize, so it
// lands in merge order on sharded runs.
func (p *Probe) HomeStart(now uint64, home int, block uint64, typ string, requester int) {
	e := Event{At: now, Kind: KindHomeStart, Type: typ, Src: home, Dst: home, Block: block, Req: requester}
	if p.route != nil {
		p.route(home, e, nil)
		return
	}
	p.Finalize(e, nil)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
