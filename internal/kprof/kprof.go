// Package kprof is the kernel-level profiling layer for the
// time-windowed parallel simulation kernel (sim.Sharded): where does
// the wall time of a sharded run actually go?
//
// The sharded kernel advances in lock-step sub-rounds ("waves"): a
// parallel phase where every lane fires its same-instant events, then
// a single-threaded replay phase where the coordinator merges deferred
// cross-lane effects. A Profile decomposes the run along exactly those
// seams:
//
//   - per-lane busy time (inside lane.run) and idle time (waiting at
//     the wave barrier while slower lanes finish),
//   - coordinator time, split into merge/bind overhead, mailbox send
//     replay (including RelHome companion scheduling), deferred global
//     ops, and global events,
//   - per-wave width (events fired per wave, total and per lane) and
//     the barrier-stall distribution.
//
// From these it derives an Amdahl-style speedup attribution: the
// serial fraction the coordinator imposes, the critical-lane imbalance
// factor, and the parallel efficiency — the numbers ROADMAP items 1–2
// (chain/tree shard safety, the P=1024 frontier) need before any
// tuning is possible.
//
// The design contract mirrors internal/obs: a nil *Profile costs one
// pointer check per hook site, and profiling never perturbs the
// simulation. All hooks read the host's monotonic clock, never
// simulated time; simulated results — cycle counts, counters, the
// sweep CSV — are byte-identical with profiling on or off (pinned by
// the golden regression tests). The intra-shard hot path (an event
// firing and rescheduling inside one lane) is untouched: lane timing
// brackets the whole wave drain, not individual events, so the
// 0 allocs/op guarantee holds with a Profile attached — every
// accumulator here is fixed-size and preallocated, including the
// bounded per-wave timeline.
//
// Writer discipline: during a parallel phase each worker writes only
// its own cache-line-padded scratch slot (LaneStart/LaneEnd); the
// coordinator owns every other field and folds the scratch after the
// wave barrier, whose channel operations provide the happens-before
// edges.
package kprof

import "time"

// TimelineCap bounds the per-wave timeline retained for the Chrome
// trace export. Long runs execute millions of waves; the timeline
// keeps the first TimelineCap and counts the rest in
// Report.TimelineDropped — a documented cap, never a silent one (the
// report and the trace metadata both carry the dropped count).
const TimelineCap = 2048

// laneScratch is the per-lane slot a worker stamps during the parallel
// phase, plus the coordinator's post-barrier fired count. Padded to a
// cache line so two lanes never share one.
type laneScratch struct {
	start  int64  // monotonic ns at LaneStart (worker-owned)
	busyNs int64  // LaneEnd - LaneStart for the current wave (worker-owned)
	fired  uint64 // events fired this wave (coordinator-owned, via LaneDone)
	_      [5]uint64
}

// LaneAcc accumulates one lane's totals across the run. Written only
// by the coordinator (after the wave barrier).
type LaneAcc struct {
	// Events is the number of events this lane fired in parallel phases.
	Events uint64 `json:"events"`
	// BusyNs is the total wall time the lane spent firing events.
	BusyNs int64 `json:"busy_ns"`
	// IdleNs is the total wall time the lane spent waiting at the wave
	// barrier for slower lanes (phase wall minus lane busy).
	IdleNs int64 `json:"idle_ns"`
	// Sends is the number of cross-lane mailbox sends replayed on the
	// lane's behalf.
	Sends uint64 `json:"sends"`
	// Spawns is the number of provisional events the lane scheduled
	// (bound during replay).
	Spawns uint64 `json:"spawns"`
	// GlobalOps is the number of deferred global-state closures the lane
	// logged.
	GlobalOps uint64 `json:"global_ops"`
	// MaxWaveEvents is the largest number of events the lane fired in a
	// single wave.
	MaxWaveEvents uint64 `json:"max_wave_events"`
}

// Profile collects a kernel profile across one or more Run calls of a
// sim.Sharded engine. Attach it before running (sim.Sharded.SetProf /
// coherent.Machine.AttachKProf); read it after with Report, Timeline,
// or WriteChromeTrace. A Profile must not be shared between
// concurrently running engines.
type Profile struct {
	shards  int
	scratch []laneScratch
	lanes   []LaneAcc

	// Wave/round structure.
	rounds    uint64 // distinct simulated instants
	waves     uint64 // sub-rounds (>= rounds)
	waveWidth Hist   // events per wave, all lanes
	stall     Hist   // per-lane barrier idle ns per wave

	// Wall-clock decomposition (monotonic ns).
	runStart   time.Time
	wallNs     int64 // total Run wall time, summed across Run calls
	phaseNs    int64 // parallel-phase sections (dispatch to barrier)
	replayNs   int64 // Phase R merge loops
	rebindNs   int64 // provisional-event rebinding
	criticalNs int64 // sum of per-wave max lane busy (the critical lane)

	// Replay decomposition (inside replayNs).
	sendNs       int64
	sendCount    uint64
	globalOpNs   int64
	globalOpCnt  uint64
	globalEvNs   int64
	globalEvCnt  uint64
	bindCount    uint64
	relHomeCount uint64

	executed uint64
	runs     uint64

	// Per-wave scratch (coordinator).
	waveStart int64
	waveAt    uint64

	// Timeline: flat parallel arrays, preallocated to TimelineCap so
	// recording a wave never allocates. tlLaneBusy/tlLaneEvents hold
	// shards entries per recorded wave.
	tlAt            []uint64
	tlStart         []int64
	tlPhase         []int64
	tlReplay        []int64
	tlLaneBusy      []int64
	tlLaneEvents    []uint64
	timelineDropped uint64
}

// now returns monotonic ns since the current Run started.
func (p *Profile) now() int64 {
	return int64(time.Since(p.runStart)) //dirccvet:allow simdet host-side kernel profiling; simulated behavior never reads it
}

// Clock exposes the profile's monotonic clock so the kernel can
// bracket replay actions without importing the time package itself.
func (p *Profile) Clock() int64 { return p.now() }

// Start (re)arms the profile for a Run on the given lane count.
// Accumulators carry over across Run calls (a machine may drain its
// kernel more than once per experiment); only the per-run clock base
// is re-stamped. Allocated capacity is retained, so a warmed profile
// adds zero steady-state allocations. The kernel calls this from Run.
func (p *Profile) Start(shards int) {
	if p.shards != shards || p.scratch == nil {
		p.scratch = make([]laneScratch, shards)
		p.lanes = make([]LaneAcc, shards)
		p.shards = shards
		p.tlLaneBusy = make([]int64, 0, TimelineCap*shards)
		p.tlLaneEvents = make([]uint64, 0, TimelineCap*shards)
	}
	if p.tlAt == nil {
		p.tlAt = make([]uint64, 0, TimelineCap)
		p.tlStart = make([]int64, 0, TimelineCap)
		p.tlPhase = make([]int64, 0, TimelineCap)
		p.tlReplay = make([]int64, 0, TimelineCap)
	}
	for i := range p.scratch {
		p.scratch[i] = laneScratch{}
	}
	p.runs++
	p.runStart = time.Now() //dirccvet:allow simdet host-side kernel profiling clock base
}

// Shards returns the lane count of the profiled run (0 before the
// first Run).
func (p *Profile) Shards() int { return p.shards }

// ---------------------------------------------------------------------
// Worker-side hooks (parallel phase; lane-local writes only)
// ---------------------------------------------------------------------

// LaneStart stamps the beginning of lane's wave drain. Called by the
// lane's worker goroutine.
func (p *Profile) LaneStart(lane int) {
	p.scratch[lane].start = p.now()
}

// LaneEnd stamps the end of lane's wave drain.
func (p *Profile) LaneEnd(lane int) {
	s := &p.scratch[lane]
	s.busyNs = p.now() - s.start
}

// ---------------------------------------------------------------------
// Coordinator-side hooks
// ---------------------------------------------------------------------

// RoundStart marks the kernel advancing to a new simulated instant.
func (p *Profile) RoundStart(at uint64) {
	p.rounds++
}

// WaveStart marks the dispatch of one parallel phase at instant at.
func (p *Profile) WaveStart(at uint64) {
	p.waves++
	p.waveAt = at
	p.waveStart = p.now()
}

// LaneDone records, post-barrier, the number of events lane fired this
// wave. The coordinator calls it for every lane before WaveBarrier.
func (p *Profile) LaneDone(lane int, fired uint64) {
	p.scratch[lane].fired = fired
}

// WaveBarrier folds the wave's parallel phase after every lane passed
// the barrier and LaneDone ran: per-lane busy/idle accounting, the
// wave-width and stall histograms, the critical-lane accumulator, and
// (below the cap) one timeline slice.
func (p *Profile) WaveBarrier() {
	phase := p.now() - p.waveStart
	p.phaseNs += phase
	var total uint64
	var maxBusy int64
	record := len(p.tlAt) < TimelineCap
	for i := range p.lanes {
		s := &p.scratch[i]
		busy := s.busyNs
		if busy > phase {
			busy = phase // worker span nests inside ours; clamp clock skew
		}
		if busy < 0 {
			busy = 0
		}
		acc := &p.lanes[i]
		acc.Events += s.fired
		acc.BusyNs += busy
		idle := phase - busy
		acc.IdleNs += idle
		p.stall.Observe(uint64(idle))
		if s.fired > acc.MaxWaveEvents {
			acc.MaxWaveEvents = s.fired
		}
		if busy > maxBusy {
			maxBusy = busy
		}
		total += s.fired
		if record {
			p.tlLaneBusy = append(p.tlLaneBusy, busy)
			p.tlLaneEvents = append(p.tlLaneEvents, s.fired)
		}
		s.busyNs, s.fired = 0, 0
	}
	p.criticalNs += maxBusy
	p.waveWidth.Observe(total)
	if record {
		p.tlAt = append(p.tlAt, p.waveAt)
		p.tlStart = append(p.tlStart, p.waveStart)
		p.tlPhase = append(p.tlPhase, phase)
		p.tlReplay = append(p.tlReplay, 0)
	} else {
		p.timelineDropped++
	}
}

// EndReplay attributes one Phase-R merge loop that began at start (a
// Clock stamp taken just before replay).
func (p *Profile) EndReplay(start int64) {
	d := p.now() - start
	p.replayNs += d
	if n := len(p.tlReplay); n > 0 && p.tlAt[n-1] == p.waveAt && p.timelineDropped == 0 {
		p.tlReplay[n-1] += d
	}
}

// EndRebind attributes one provisional-event rebind that began at
// start.
func (p *Profile) EndRebind(start int64) { p.rebindNs += p.now() - start }

// NoteSendReplay attributes one replayed mailbox send — lane's
// deferred network injection, RelHome companion scheduling included —
// that took ns on the coordinator.
func (p *Profile) NoteSendReplay(lane int, ns int64) {
	p.sendNs += ns
	p.sendCount++
	p.lanes[lane].Sends++
}

// NoteGlobalOp attributes one replayed global-state closure from lane.
func (p *Profile) NoteGlobalOp(lane int, ns int64) {
	p.globalOpNs += ns
	p.globalOpCnt++
	p.lanes[lane].GlobalOps++
}

// NoteGlobalEvent attributes one global event (barrier release, lock
// grant) fired during replay.
func (p *Profile) NoteGlobalEvent(ns int64) {
	p.globalEvNs += ns
	p.globalEvCnt++
}

// NoteBind counts one provisional spawn bound to its true sequence
// number during replay, on behalf of lane.
func (p *Profile) NoteBind(lane int) {
	p.bindCount++
	p.lanes[lane].Spawns++
}

// NoteRelHome counts one RelHome reply replayed through the mailbox —
// the write-commit/gate-release companion path the coherence machine
// schedules on the home lane. Called by the machine's SendReplayer.
func (p *Profile) NoteRelHome() { p.relHomeCount++ }

// WaveEnd closes one sub-round: the coordinator calls it after rebind,
// outside any parallel phase, with the kernel's executed-event count.
func (p *Profile) WaveEnd(executed uint64) {
	p.executed = executed
}

// Finish stamps the Run's wall time. The kernel calls it when Run
// returns, error paths included.
func (p *Profile) Finish(executed uint64) {
	p.executed = executed
	p.wallNs += p.now()
}

// ---------------------------------------------------------------------
// Timeline reconstruction
// ---------------------------------------------------------------------

// TimelineSlice is one recorded wave: the instant it simulated and how
// its wall time split between the parallel phase and the coordinator.
type TimelineSlice struct {
	// At is the simulated instant the wave fired.
	At uint64 `json:"at"`
	// StartNs is the wave's start, in monotonic ns since its Run began.
	StartNs int64 `json:"start_ns"`
	// PhaseNs is the parallel-phase wall time (dispatch to barrier).
	PhaseNs int64 `json:"phase_ns"`
	// ReplayNs is the coordinator's merge/replay wall time.
	ReplayNs int64 `json:"replay_ns"`
	// LaneBusyNs / LaneEvents split the phase per lane.
	LaneBusyNs []int64  `json:"lane_busy_ns"`
	LaneEvents []uint64 `json:"lane_events"`
}

// Timeline materializes the recorded waves (at most TimelineCap; see
// Report.TimelineDropped for the overflow count). Call after the run.
func (p *Profile) Timeline() []TimelineSlice {
	out := make([]TimelineSlice, len(p.tlAt))
	for i := range out {
		out[i] = TimelineSlice{
			At: p.tlAt[i], StartNs: p.tlStart[i], PhaseNs: p.tlPhase[i], ReplayNs: p.tlReplay[i],
			LaneBusyNs: append([]int64(nil), p.tlLaneBusy[i*p.shards:(i+1)*p.shards]...),
			LaneEvents: append([]uint64(nil), p.tlLaneEvents[i*p.shards:(i+1)*p.shards]...),
		}
	}
	return out
}
