// Conservative time-windowed parallel engine (PDES).
//
// Sharded partitions simulation nodes across S worker lanes and
// advances the clock in lock-step rounds, one simulated instant per
// round. Each round is a sequence of sub-rounds with two phases:
//
//   - Phase P (parallel): every lane fires, from its private queue, its
//     events whose timestamp equals the round instant T — in (at, seq)
//     order, using true global sequence numbers assigned before the
//     sub-round began. Events spawned during the phase are provisional:
//     they are buffered in a per-lane FIFO and fire in a later
//     sub-round, once replay has bound their true sequence numbers.
//     Cross-lane side effects are forbidden in this phase: network
//     sends are deferred into a per-lane mailbox, and operations on
//     shared (global) state are captured as closures.
//
//   - Phase R (replay, single-threaded): the coordinator merges the
//     per-lane action logs by the global (at, seq) total order —
//     binding true sequence numbers to the events spawned in Phase P
//     in exactly the order the sequential engine would have allocated
//     them — and replays the deferred side effects (mailbox sends,
//     global-state closures) at their merge positions. Global events
//     scheduled for T (barrier releases, lock grants) fire here, at
//     their own merge positions.
//
// The sub-round loop repeats at the same instant while work keeps
// landing at T. Because every firing comes from a true-seq queue, each
// sub-round fires a sequence-monotone wave: the global sequence
// counter only grows, so every sequence number allocated during a
// replay — spawn bindings, wakeups inserted by global ops, send
// deliveries — is strictly greater than that of every event already
// fired. Wave k+1 therefore consists exactly of the same-instant
// events the sequential engine would fire after wave k, in the same
// order. The result: the fired-event sequence per node, all
// timestamps, and the final sequence counter are bit-for-bit identical
// to the sequential Engine at every shard count, including S=1.
//
// Determinism additionally rests on node affinity: during Phase P an
// event executing on lane L may schedule only onto nodes owned by L;
// everything else must go through the mailbox (sends), the global-op
// log, or a global event. The laneguard analyzer in cmd/dirccvet
// enforces the static shape of this rule; the race detector and the
// byte-identity regression tests enforce it dynamically. See DESIGN.md
// ("Parallel simulation") for the full invariant catalogue.
package sim

import (
	"fmt"
	"sync"

	"dircc/internal/kprof"
)

// SendReplayer replays one side effect that a lane deferred during
// Phase P. The coherence machine implements this: it stores the
// deferred message per lane and performs the real network send (which
// consumes sequence numbers) when the merge reaches the logged
// position.
type SendReplayer interface {
	ReplaySend(lane, idx int)
}

// NodeScheduler is the kernel surface shared by Engine (node-oblivious)
// and Sharded (routes to the owning lane): the current instant, the
// ability to fire a handler at a specific node at an absolute time
// (all the network layer needs), and the event count the coherence
// machine reports.
type NodeScheduler interface {
	Now() Time
	AtNode(node int, t Time, h Handler)
	Executed() uint64
}

// AtNode fires h at instant t; the sequential engine has a single
// queue, so the node is irrelevant.
func (e *Engine) AtNode(node int, t Time, h Handler) { e.At(t, h) }

// Sharded engine states. Transitions happen only on the coordinator
// goroutine; workers observe statePhase through the happens-before
// edge of the round-start channel send.
const (
	stateIdle uint32 = iota // outside Run, or between rounds: direct true-seq scheduling
	statePhase
	stateReplay
)

const (
	actSpawn  uint8 = iota // one Schedule by a lane event: binds the next true seq
	actSend                // one deferred network send: replayed via SendReplayer
	actGlobal              // one global-state closure: executed at merge position
)

// pevent is a provisional event: spawned during Phase P, buffered
// until replay binds its true sequence number and rebind moves it to
// the lane queue.
type pevent struct {
	at Time
	h  Handler
}

// logEnt records one fired event that performed at least one action
// (spawn, send, or global op); key is its true sequence number.
type logEnt struct {
	key  uint64
	acts int32
}

// lane is the per-shard slice of the simulation: a private event queue
// plus the round-local structures Phase P appends to. Only the owning
// worker touches a lane during Phase P; only the coordinator touches
// it otherwise.
type lane struct {
	q     calendar // events with true (at, seq) keys
	eq    []pevent // events spawned this sub-round, in spawn order
	log   []logEnt // fired events with actions, in fire order
	kinds []uint8  // flattened per-entry action kinds, in call order
	gfns  []func() // global-op closures, in log order
	bind  []uint64 // true seq for eq[i]; 0 = not yet bound
	fired uint64   // events fired this sub-round (merged into executed)
	fence uint64   // smallest same-instant seq bound this replay; 0 = none
	fault any      // value of a panic raised during Phase P; nil = none

	// Open log entry for the currently firing event (Phase P scratch).
	curKey  uint64
	curOpen bool
}

// addAct records one action against the currently firing event,
// opening its log entry on first use so action-free events (pure
// node-local work with future-delay continuations is the common case)
// cost nothing in the merge... except that Schedule itself is an
// action (it consumes a sequence number), so in practice most fired
// events log one actSpawn.
func (l *lane) addAct(kind uint8) {
	if !l.curOpen {
		l.log = append(l.log, logEnt{key: l.curKey})
		l.curOpen = true
	}
	l.kinds = append(l.kinds, kind)
	l.log[len(l.log)-1].acts++
}

// run is Phase P for one lane: fire the lane's queued events at
// instant T in sequence order. The queue cannot grow mid-phase — spawns
// go to the provisional FIFO — so the drain is bounded by construction.
//
//dirccvet:hotpath
func (l *lane) run(T Time) {
	for l.atHead(T) {
		ev := l.q.pop()
		l.curKey, l.curOpen = ev.seq, false
		ev.h.Fire()
		l.fired++
	}
}

// fire runs Phase P for the lane behind a recover: a panic raised by
// one of the lane's events is kept in fault for the coordinator, which
// re-raises it on Run's goroutine after the wave barrier, instead of
// killing the process from a worker goroutine.
func (l *lane) fire(T Time) {
	defer func() {
		if v := recover(); v != nil {
			l.fault = v
		}
	}()
	l.run(T)
}

// atHead reports whether the lane's next queued event fires at T.
//
//dirccvet:hotpath
func (l *lane) atHead(T Time) bool {
	return l.q.len() > 0 && l.q.next() == T
}

// replCur tracks a lane's replay position: log entry, flattened
// action, send, global-fn, and bind indices.
type replCur struct {
	li, ai, si, gi, bi int
}

// Sharded is a conservative parallel discrete-event engine that is
// observationally identical to Engine. Nodes are partitioned across
// lanes; Run advances all lanes in lock-step rounds and merges
// cross-lane effects deterministically (see the package comment).
//
// The zero value is not usable; construct with NewSharded.
type Sharded struct {
	now      Time
	seq      uint64
	executed uint64
	state    uint32

	lanes  []*lane
	laneOf []int32
	gq     calendar // global-state events (barriers, locks): fired during replay
	cur    []replCur

	replayer SendReplayer

	// prof, when non-nil, receives the kernel profiling hooks (see
	// internal/kprof). Every hook site is behind a nil check, so an
	// unprofiled run pays one pointer compare per sub-round section.
	prof *kprof.Profile

	// MaxEvents, when non-zero, aborts Run with ErrEventBudget once the
	// fired-event count exceeds it. Unlike the sequential engine the
	// check happens at sub-round boundaries, so the abort point can
	// overshoot by up to one sub-round; only the error path differs.
	MaxEvents uint64
}

// NewSharded returns an engine partitioning nodes across shards lanes
// (clamped to [1, nodes]) in contiguous blocks.
func NewSharded(nodes, shards int) *Sharded {
	if nodes <= 0 {
		panic("sim: NewSharded needs at least one node")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	s := &Sharded{
		lanes:  make([]*lane, shards),
		laneOf: make([]int32, nodes),
		cur:    make([]replCur, shards),
	}
	for i := range s.lanes {
		s.lanes[i] = &lane{}
	}
	for n := range s.laneOf {
		s.laneOf[n] = int32(n * shards / nodes)
	}
	return s
}

// Shards returns the number of worker lanes.
func (s *Sharded) Shards() int { return len(s.lanes) }

// LaneOf returns the lane that owns node n.
func (s *Sharded) LaneOf(n int) int { return int(s.laneOf[n]) }

// Now returns the current simulated time. During Phase P this is the
// round instant, published to workers via the round-start channel.
func (s *Sharded) Now() Time { return s.now }

// Executed returns the number of events fired so far. It is refreshed
// at sub-round boundaries, not per event.
func (s *Sharded) Executed() uint64 { return s.executed }

// Pending returns the number of events waiting across all lanes.
func (s *Sharded) Pending() int {
	n := s.gq.len()
	for _, l := range s.lanes {
		n += l.q.len() + len(l.eq)
	}
	return n
}

// SetReplayer installs the mailbox side-effect replayer. Required
// before Run if any Phase-P event defers a send.
func (s *Sharded) SetReplayer(r SendReplayer) { s.replayer = r }

// SetProf attaches a kernel profile. Must be set before Run; nil
// detaches. Profiling reads only the host clock and never the
// simulated state, so results are byte-identical with it on or off.
func (s *Sharded) SetProf(p *kprof.Profile) { s.prof = p }

// InPhase reports whether the engine is inside Phase P, i.e. whether
// callers must defer cross-lane side effects. The coherence machine
// keys its send path off this.
func (s *Sharded) InPhase() bool { return s.state == statePhase }

// ScheduleNode fires h on node n after delay cycles. During Phase P
// the caller must be the lane that owns n (node affinity); the event
// is provisional until replay binds its sequence number. Outside
// Phase P (setup, replay, quiesce checks) the event gets a true
// sequence number immediately — exactly the number the sequential
// engine would allocate at the same point.
func (s *Sharded) ScheduleNode(n int, delay Time, h Handler) {
	if h == nil {
		panic("sim: ScheduleNode called with nil handler")
	}
	l := s.lanes[s.laneOf[n]]
	if s.state == statePhase {
		l.eq = append(l.eq, pevent{at: s.now + delay, h: h})
		l.bind = append(l.bind, 0)
		l.addAct(actSpawn)
		return
	}
	s.seq++
	l.q.push(s.now+delay, s.seq, h)
}

// LogSendAt records that the event firing on node n's lane deferred
// one network send into the caller's mailbox. Phase P only.
func (s *Sharded) LogSendAt(n int) {
	if s.state != statePhase {
		panic("sim: LogSendAt outside Phase P (send directly instead)")
	}
	s.lanes[s.laneOf[n]].addAct(actSend)
}

// GlobalOp runs fn — which may touch only global (non-node) state —
// at the current instant. During Phase P the closure is logged and
// executed at the firing event's merge position during replay, where
// any scheduling it performs allocates the same sequence numbers the
// sequential engine would. Outside Phase P it runs inline, which makes
// the sequential semantics literal: GlobalOp on an Engine-backed
// machine is a plain call.
func (s *Sharded) GlobalOp(n int, fn func()) {
	if s.state == statePhase {
		l := s.lanes[s.laneOf[n]]
		l.gfns = append(l.gfns, fn)
		l.addAct(actGlobal)
		return
	}
	fn()
}

// ScheduleGlobal fires h — global state only — after delay cycles, as
// a merge-ordered event outside any lane. Callable only from replay or
// idle contexts (global-op closures, setup); Phase P events must use
// GlobalOp to get here.
func (s *Sharded) ScheduleGlobal(delay Time, h Handler) {
	if h == nil {
		panic("sim: ScheduleGlobal called with nil handler")
	}
	if s.state == statePhase {
		panic("sim: ScheduleGlobal during Phase P (wrap in GlobalOp)")
	}
	s.seq++
	s.gq.push(s.now+delay, s.seq, h)
}

// AtNode fires h at node n at absolute instant t. This is the network
// delivery path: it must run outside Phase P (deliveries are produced
// by replayed sends), where direct true-seq insertion is
// deterministic.
func (s *Sharded) AtNode(n int, t Time, h Handler) {
	if s.state == statePhase {
		panic("sim: AtNode during Phase P (defer the send)")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: AtNode(%d) is in the past (now=%d)", t, s.now))
	}
	if h == nil {
		panic("sim: AtNode called with nil handler")
	}
	s.seq++
	s.lanes[s.laneOf[n]].q.push(t, s.seq, h)
}

// nextTime returns the earliest pending instant across all lanes and
// the global queue.
func (s *Sharded) nextTime() (Time, bool) {
	var t Time
	ok := false
	for _, l := range s.lanes {
		if l.q.len() > 0 {
			if at := l.q.next(); !ok || at < t {
				t, ok = at, true
			}
		}
	}
	if s.gq.len() > 0 {
		if at := s.gq.next(); !ok || at < t {
			t, ok = at, true
		}
	}
	return t, ok
}

// globalAt returns the sequence number of the next global event and
// whether it fires at T.
func (s *Sharded) globalAt(T Time) (uint64, bool) {
	if s.gq.len() == 0 {
		return 0, false
	}
	at, seq := s.gq.peek()
	return seq, at == T
}

// replay is Phase R: merge the per-lane action logs and the global
// event queue by true sequence number, binding sequence numbers to
// Phase-P spawns and replaying deferred side effects at their exact
// sequential positions. Global events at T fire here; they may
// schedule further global events at T (drained within this loop, with
// a budget check so a zero-delay global livelock still aborts).
func (s *Sharded) replay(T Time) error {
	for i := range s.cur {
		s.cur[i] = replCur{}
	}
	for {
		bestLane := -1
		var bestKey uint64
		have := false
		if gseq, ok := s.globalAt(T); ok {
			// Fence: a global event may fire now only if no lane queue
			// holds a same-instant event with a smaller sequence number
			// (inserted earlier in this very replay by a global op or
			// send). Such an event fires in the next sub-round's phase
			// and its actions merge in that replay, so the global event
			// must wait its turn there to keep the merge order equal to
			// the sequential order. Deferring is safe: global events
			// touch no node state, so only their merge position — not
			// their physical fire time — is observable.
			fenced := false
			for _, l := range s.lanes {
				if l.fence != 0 && l.fence < gseq {
					fenced = true
					break
				}
				if l.q.len() > 0 {
					if at, seq := l.q.peek(); at == T && seq < gseq {
						fenced = true
						break
					}
				}
			}
			if !fenced {
				bestKey, have = gseq, true
			}
		}
		for li, l := range s.lanes {
			c := &s.cur[li]
			if c.li >= len(l.log) {
				continue
			}
			if key := l.log[c.li].key; !have || key < bestKey {
				bestKey, bestLane, have = key, li, true
			}
		}
		if !have {
			return nil
		}
		if bestLane < 0 {
			ev := s.gq.pop()
			s.executed++
			if s.MaxEvents != 0 && s.executed > s.MaxEvents {
				return ErrEventBudget
			}
			if p := s.prof; p != nil {
				t0 := p.Clock()
				ev.h.Fire()
				p.NoteGlobalEvent(p.Clock() - t0)
			} else {
				ev.h.Fire()
			}
			continue
		}
		l, c := s.lanes[bestLane], &s.cur[bestLane]
		e := l.log[c.li]
		c.li++
		for k := int32(0); k < e.acts; k++ {
			switch l.kinds[c.ai] {
			case actSpawn:
				s.seq++
				l.bind[c.bi] = s.seq
				// Track the first (hence smallest) same-instant bind for
				// the global-event fence: this spawn fires next
				// sub-round, so globals with larger seqs must wait.
				if l.fence == 0 && l.eq[c.bi].at == T {
					l.fence = s.seq
				}
				c.bi++
				if s.prof != nil {
					s.prof.NoteBind(bestLane)
				}
			case actSend:
				if s.replayer == nil {
					panic("sim: deferred send with no SendReplayer installed")
				}
				if p := s.prof; p != nil {
					t0 := p.Clock()
					s.replayer.ReplaySend(bestLane, c.si)
					p.NoteSendReplay(bestLane, p.Clock()-t0)
				} else {
					s.replayer.ReplaySend(bestLane, c.si)
				}
				c.si++
			case actGlobal:
				fn := l.gfns[c.gi]
				l.gfns[c.gi] = nil
				c.gi++
				if p := s.prof; p != nil {
					t0 := p.Clock()
					fn()
					p.NoteGlobalOp(bestLane, p.Clock()-t0)
				} else {
					fn()
				}
			}
			c.ai++
		}
	}
}

// rebind moves each lane's provisional events — now carrying true
// sequence numbers — into its main queue and resets the sub-round
// structures (capacity retained, handlers and closures released). It reports
// whether any lane or the global queue still has work at T, i.e.
// whether another sub-round is needed.
func (s *Sharded) rebind(T Time) bool {
	more := false
	for _, l := range s.lanes {
		for i := range l.eq {
			pe := &l.eq[i]
			if l.bind[i] == 0 {
				// Every spawn's parent fired this sub-round, so replay
				// must have bound it; an unbound entry means a schedule
				// leaked across lanes during Phase P.
				panic("sim: provisional event never bound during replay (cross-lane schedule during Phase P?)")
			}
			l.q.push(pe.at, l.bind[i], pe.h)
			pe.h = nil
		}
		l.eq = l.eq[:0]
		l.log = l.log[:0]
		l.kinds = l.kinds[:0]
		l.gfns = l.gfns[:0]
		l.bind = l.bind[:0]
		l.fence = 0
		s.executed += l.fired
		l.fired = 0
		if l.atHead(T) {
			more = true
		}
	}
	if _, ok := s.globalAt(T); ok {
		more = true
	}
	return more
}

// Run fires events in (at, seq) order until every queue drains or the
// event budget is exhausted. Worker goroutines live for the duration
// of one Run call; all coordination is two channel operations per lane
// per sub-round, which also provide the happens-before edges that make
// the lane structures race-free. A panic raised by an event reaches
// Run's caller, as on the sequential kernel: after the wave barrier the
// coordinator re-raises the value of the lowest-numbered lane that
// panicked, and Run's deferred cleanup stops every worker before the
// panic leaves Run.
func (s *Sharded) Run() error {
	if s.state != stateIdle {
		panic("sim: Sharded.Run re-entered")
	}
	prof := s.prof
	if prof != nil {
		prof.Start(len(s.lanes))
	}
	work := make([]chan Time, len(s.lanes))
	done := make(chan struct{}, len(s.lanes))
	var wg sync.WaitGroup
	for i := range s.lanes {
		work[i] = make(chan Time, 1)
		wg.Add(1)
		go func(li int, l *lane, in <-chan Time) {
			defer wg.Done()
			if prof != nil {
				for t := range in {
					prof.LaneStart(li)
					l.fire(t)
					prof.LaneEnd(li)
					done <- struct{}{}
				}
				return
			}
			for t := range in {
				l.fire(t)
				done <- struct{}{}
			}
		}(i, s.lanes[i], work[i])
	}
	defer func() {
		for _, w := range work {
			close(w)
		}
		wg.Wait()
		s.state = stateIdle
		if prof != nil {
			prof.Finish(s.executed)
		}
	}()
	for {
		T, ok := s.nextTime()
		if !ok {
			return nil
		}
		if T < s.now {
			panic("sim: time went backwards")
		}
		s.now = T
		if prof != nil {
			prof.RoundStart(uint64(T))
		}
		for sub := true; sub; {
			s.state = statePhase
			if prof != nil {
				prof.WaveStart(uint64(T))
			}
			for i := range work {
				work[i] <- T
			}
			for range s.lanes {
				<-done
			}
			for _, l := range s.lanes {
				if v := l.fault; v != nil {
					l.fault = nil
					panic(v)
				}
			}
			s.state = stateReplay
			if prof != nil {
				// l.fired is still per-wave here: rebind folds it below.
				for i, l := range s.lanes {
					prof.LaneDone(i, l.fired)
				}
				prof.WaveBarrier()
			}
			var err error
			if prof != nil {
				rs := prof.Clock()
				err = s.replay(T)
				prof.EndReplay(rs)
				bs := prof.Clock()
				sub = s.rebind(T)
				prof.EndRebind(bs)
				prof.WaveEnd(s.executed)
			} else {
				err = s.replay(T)
				sub = s.rebind(T)
			}
			if err == nil && s.MaxEvents != 0 && s.executed > s.MaxEvents {
				err = ErrEventBudget
			}
			if err != nil {
				return err
			}
		}
		s.state = stateIdle
	}
}
