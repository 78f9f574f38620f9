//go:build go1.23

// The go1.23 constraint raises this file's language version above
// go.mod's go 1.22, so that it may use iter.Pull; building the package
// takes a Go 1.23 or newer toolchain. go.mod stays at go 1.22 because
// perfbench/go.mod, which the benchmark builds with -mod=readonly, must
// be raised in the same change.

// Package proc provides the execution-driven processor front end: each
// simulated CPU runs real Go application code against a simulated
// shared-memory API, cooperatively scheduled by the event kernel.
//
// This is the Proteus substitution described in DESIGN.md §6. Each
// processor's body runs as an iter.Pull coroutine. Every call into the
// Env yields a request to the simulator, which advances the clock and
// resumes the coroutine when the reference completes. A processor runs
// only while the simulator code resuming it waits, and the kernel
// resumes each processor from one event at a time (on sim.Sharded,
// from its own node's lane), so simulations remain deterministic.
package proc

import (
	"fmt"
	"iter"

	"dircc/internal/coherent"
	"dircc/internal/sim"
)

// Env is the shared-memory programming interface visible to simulated
// application code. All addresses are byte addresses into the machine's
// shared address space (see Machine.Alloc); values are 64-bit words.
type Env interface {
	// ID returns this processor's index in [0, NProcs).
	ID() int
	// NProcs returns the number of processors in the run.
	NProcs() int
	// Read performs a shared-memory load.
	Read(addr uint64) uint64
	// Write performs a shared-memory store.
	Write(addr uint64, v uint64)
	// FetchAdd atomically adds delta to the word at addr and returns
	// the previous value (serialized at the block's home).
	FetchAdd(addr uint64, delta uint64) uint64
	// Compute charges cycles of local computation.
	Compute(cycles uint64)
	// Barrier blocks until every processor has arrived.
	Barrier()
	// Lock acquires the global lock with the given id (FIFO queue).
	Lock(id int)
	// Unlock releases it.
	Unlock(id int)
	// Now returns the current simulated time.
	Now() sim.Time
}

// Body is an application kernel: the code one processor executes.
type Body func(Env)

type reqKind uint8

const (
	reqRead reqKind = iota
	reqWrite
	reqFetchAdd
	reqCompute
	reqBarrier
	reqLock
	reqUnlock
	reqDone
)

type request struct {
	kind   reqKind
	addr   uint64
	value  uint64
	cycles uint64
	lockID int
}

// Group runs one Body per processor on a Machine.
type Group struct {
	m     *coherent.Machine
	procs []*proc

	barrierWaiting int
	barrierResume  []*proc
	locks          map[int]*lockState
	// memLocks holds the shared-memory words of ticket locks when the
	// machine is configured with MemLocks (addresses allocated lazily).
	memLocks map[int][2]uint64

	// wb holds per-processor write buffers when the machine is
	// configured with WriteBuffer > 0 (TSO-style relaxation).
	wb []*wstate

	running  int
	finished int
}

// pendingWrite is one entry of a processor's write buffer.
type pendingWrite struct {
	addr, value uint64
}

// wstate is a processor's write buffer: q[0] is the write in flight
// when busy; wait/cont park the processor until a buffer condition
// holds (space available, full drain, or a block conflict clearing).
type wstate struct {
	q    []pendingWrite
	busy bool
	wait func() bool
	cont func()
}

// proc is one processor; it is also the Env its body runs against.
type proc struct {
	id int
	g  *Group

	// next resumes the body until its next Env call and returns that
	// call's request, or false once the body has returned; stop ends a
	// body that has not. yield, the coroutine's side of next, hands the
	// request over, and resume carries the simulator's answer back.
	next   func() (request, bool)
	stop   func()
	yield  func(request) bool
	resume uint64

	// The resume callbacks, built once in Run rather than per request:
	// onValue resumes the processor with a reference's result, onWrite
	// resumes it with 0 whatever the store returned, and onEvent resumes
	// it with 0 as a scheduled event.
	onValue, onWrite func(uint64)
	onEvent          func()

	// The synchronization operations, also built once in Run: the
	// global ops a barrier, lock, unlock and exit hand to GlobalOpAt,
	// and FetchAdd's add function. They read their operands from lockID
	// and delta, which dispatchOrdered sets. A processor has one request
	// outstanding, so neither changes before its op has run, in the
	// sharded kernel's replay step too.
	onBarrier, onLock, onUnlock, onExit func()
	addDelta                            func(old uint64) uint64
	lockID                              int
	delta                               uint64
}

type lockState struct {
	held  bool
	queue []*proc
}

// Run launches body on every processor of m, drives the simulation to
// completion, and returns the total simulated cycles. The machine must
// be fresh (its event queue is consumed). It fails if the simulation
// deadlocks (a processor never finished but no events remain) or the
// coherence monitor found violations. A panic in a body, or in the
// simulation, reaches Run's caller. On every exit Run first ends the
// bodies that have not returned.
func Run(m *coherent.Machine, body Body) (sim.Time, error) {
	g := &Group{m: m, locks: make(map[int]*lockState), memLocks: make(map[int][2]uint64)}
	defer g.stopAll()
	n := m.Cfg.Procs
	if m.Cfg.WriteBuffer > 0 {
		g.wb = make([]*wstate, n)
		for i := range g.wb {
			g.wb[i] = &wstate{}
		}
	}
	for i := 0; i < n; i++ {
		p := &proc{id: i, g: g}
		p.onValue = func(v uint64) { g.advance(p, v) }
		p.onWrite = func(uint64) { g.advance(p, 0) }
		p.onEvent = func() { g.advance(p, 0) }
		p.onBarrier = func() { g.barrierArrive(p) }
		p.onLock = func() { g.lockAcquire(p) }
		p.onUnlock = func() { g.lockRelease(p) }
		p.onExit = func() { g.exit(p) }
		p.addDelta = func(old uint64) uint64 { return old + p.delta }
		p.next, p.stop = iter.Pull(p.requests(body))
		g.procs = append(g.procs, p)
	}
	g.running = n
	for _, p := range g.procs {
		m.ScheduleAt(coherent.NodeID(p.id), 0, p.onEvent)
	}
	if err := m.Quiesce(); err != nil {
		return 0, err
	}
	if g.finished != n {
		return 0, fmt.Errorf("proc: deadlock — %d of %d processors never finished (barrier/lock imbalance?)",
			n-g.finished, n)
	}
	return m.Now(), nil
}

// abandoned unwinds a body that Run ends early: the Env call whose
// yield reports the coroutine stopped panics with it, and requests
// recovers it.
type abandoned struct{}

// requests is p's coroutine: it runs body against p and yields the
// request of every Env call.
func (p *proc) requests(body Body) iter.Seq[request] {
	return func(yield func(request) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abandoned); !ok {
					panic(r)
				}
			}
		}()
		p.yield = yield
		body(p)
	}
}

// stopAll ends every body that has not returned; after a complete run
// it has nothing to do.
func (g *Group) stopAll() {
	for _, p := range g.procs {
		p.stop()
	}
}

// advance resumes processor p with value v, takes its next request,
// and dispatches it. It runs in the simulator. A body that has
// returned makes the request reqDone.
func (g *Group) advance(p *proc, v uint64) {
	p.resume = v
	r, ok := p.next()
	if !ok {
		r = request{kind: reqDone}
	}
	g.dispatch(p, r)
}

// wbuf returns p's write buffer, or nil when running strongly ordered.
func (g *Group) wbuf(p *proc) *wstate {
	if g.wb == nil {
		return nil
	}
	return g.wb[p.id]
}

// issueWrites keeps the head of p's write buffer in flight and fires
// the parked continuation once its condition holds.
func (g *Group) issueWrites(p *proc) {
	wb := g.wb[p.id]
	if !wb.busy && len(wb.q) > 0 {
		wb.busy = true
		head := wb.q[0]
		g.m.Access(coherent.NodeID(p.id), head.addr, true, head.value, func(uint64) {
			wb.busy = false
			wb.q = wb.q[1:]
			g.issueWrites(p)
		})
	}
	if wb.wait != nil && wb.wait() {
		cont := wb.cont
		wb.wait, wb.cont = nil, nil
		cont()
	}
}

// parkUntil suspends p's request handling until cond holds (checked on
// every write-buffer completion).
func (g *Group) parkUntil(p *proc, cond func() bool, then func()) {
	wb := g.wb[p.id]
	if wb.wait != nil {
		panic("proc: processor parked twice")
	}
	if cond() {
		then()
		return
	}
	wb.wait = cond
	wb.cont = then
}

// drained reports whether p's write buffer is empty and idle.
func (g *Group) drained(p *proc) func() bool {
	wb := g.wb[p.id]
	return func() bool { return len(wb.q) == 0 && !wb.busy }
}

// dispatch translates one request into simulator actions. Under the
// write-buffer relaxation, stores retire into the buffer, loads forward
// from it, and synchronization operations (locks, barriers, atomics,
// exit) act as fences that drain it first.
func (g *Group) dispatch(p *proc, r request) {
	m := g.m
	if wb := g.wbuf(p); wb != nil {
		switch r.kind {
		case reqWrite:
			wb.q = append(wb.q, pendingWrite{r.addr, r.value})
			if len(wb.q) > m.Cfg.WriteBuffer {
				// Buffer full: the processor stalls until a slot frees.
				g.parkUntil(p, func() bool { return len(wb.q) <= m.Cfg.WriteBuffer }, p.onEvent)
			} else {
				m.ScheduleAt(coherent.NodeID(p.id), m.Cfg.CacheLatency, p.onEvent)
			}
			g.issueWrites(p)
			return
		case reqRead:
			// Store-to-load forwarding from the youngest matching entry.
			for i := len(wb.q) - 1; i >= 0; i-- {
				if wb.q[i].addr == r.addr {
					v := wb.q[i].value
					m.ScheduleAt(coherent.NodeID(p.id), m.Cfg.CacheLatency, func() { g.advance(p, v) })
					return
				}
			}
			// A buffered write to another word of the same block would
			// collide with the read transaction; wait it out.
			b := m.BlockOf(r.addr)
			clear := func() bool {
				for _, w := range wb.q {
					if m.BlockOf(w.addr) == b {
						return false
					}
				}
				return true
			}
			g.parkUntil(p, clear, func() {
				m.Access(coherent.NodeID(p.id), r.addr, false, 0, p.onValue)
			})
			return
		case reqFetchAdd, reqBarrier, reqLock, reqUnlock, reqDone:
			// Fences: drain before proceeding.
			if !g.drained(p)() {
				g.parkUntil(p, g.drained(p), func() { g.dispatchOrdered(p, r) })
				return
			}
		}
	}
	g.dispatchOrdered(p, r)
}

// dispatchOrdered handles a request under the strong (in-order) model.
func (g *Group) dispatchOrdered(p *proc, r request) {
	m := g.m
	switch r.kind {
	case reqRead:
		m.Access(coherent.NodeID(p.id), r.addr, false, 0, p.onValue)
	case reqWrite:
		m.Access(coherent.NodeID(p.id), r.addr, true, r.value, p.onWrite)
	case reqFetchAdd:
		p.delta = r.value
		m.AccessRMW(coherent.NodeID(p.id), r.addr, p.addDelta, p.onValue)
	case reqCompute:
		m.CtrAt(coherent.NodeID(p.id)).ComputeCycles += r.cycles
		m.ScheduleAt(coherent.NodeID(p.id), sim.Time(r.cycles), p.onEvent)
	case reqBarrier:
		// Barrier bookkeeping is Group-global state shared by every
		// processor, so under the sharded kernel it must run in the
		// replay step; GlobalOpAt defers it there (and is a plain call
		// sequentially). The same applies to locks and exit below.
		m.GlobalOpAt(coherent.NodeID(p.id), p.onBarrier)
	case reqLock:
		if m.Cfg.MemLocks {
			g.memLockAcquire(p, r.lockID)
			return
		}
		p.lockID = r.lockID
		m.GlobalOpAt(coherent.NodeID(p.id), p.onLock)
	case reqUnlock:
		if m.Cfg.MemLocks {
			g.memLockRelease(p, r.lockID)
			return
		}
		p.lockID = r.lockID
		m.GlobalOpAt(coherent.NodeID(p.id), p.onUnlock)
	case reqDone:
		m.GlobalOpAt(coherent.NodeID(p.id), p.onExit)
	}
}

// barrierArrive is p's global op at a barrier: the last arrival
// releases every waiter after the barrier overhead.
func (g *Group) barrierArrive(p *proc) {
	m := g.m
	g.barrierWaiting++
	g.barrierResume = append(g.barrierResume, p)
	if g.barrierWaiting == g.running {
		m.Ctr.BarrierEpochs++
		waiters := g.barrierResume
		g.barrierWaiting = 0
		g.barrierResume = nil
		m.ScheduleGlobal(m.Cfg.BarrierOverhead, func() {
			for _, w := range waiters {
				m.ScheduleAt(coherent.NodeID(w.id), 0, w.onEvent)
			}
		})
	}
}

// lockAcquire is p's global op taking lock p.lockID, or queueing for it.
func (g *Group) lockAcquire(p *proc) {
	m := g.m
	ls := g.locks[p.lockID]
	if ls == nil {
		ls = &lockState{}
		g.locks[p.lockID] = ls
	}
	if !ls.held {
		ls.held = true
		m.Ctr.LockAcquires++
		m.ScheduleAt(coherent.NodeID(p.id), m.Cfg.LockOverhead, p.onEvent)
	} else {
		ls.queue = append(ls.queue, p)
	}
}

// lockRelease is p's global op releasing lock p.lockID to the next
// waiter, if any.
func (g *Group) lockRelease(p *proc) {
	m := g.m
	ls := g.locks[p.lockID]
	if ls == nil || !ls.held {
		panic(fmt.Sprintf("proc: processor %d unlocked lock %d which is not held", p.id, p.lockID))
	}
	if len(ls.queue) > 0 {
		// Pop the head and shift the waiters down in place: the queue
		// keeps its backing array, so a contended lock stops allocating
		// once the array has grown to the most waiters it has had, and
		// the vacated last slot is cleared.
		next := ls.queue[0]
		k := copy(ls.queue, ls.queue[1:])
		ls.queue[k] = nil
		ls.queue = ls.queue[:k]
		m.Ctr.LockAcquires++
		m.ScheduleAt(coherent.NodeID(next.id), m.Cfg.LockOverhead, next.onEvent)
	} else {
		ls.held = false
	}
	// Releasing costs one cycle locally; the releaser continues.
	m.ScheduleAt(coherent.NodeID(p.id), 1, p.onEvent)
}

// exit is p's global op when its body returns.
func (g *Group) exit(p *proc) {
	g.finished++
	g.running--
	// A barrier can now be satisfied by the remaining processors.
	// Finishing while others wait at a barrier is an application
	// bug; detect it rather than hang.
	if g.barrierWaiting > 0 && g.barrierWaiting == g.running {
		panic(fmt.Sprintf("proc: processor %d exited while %d peers wait at a barrier", p.id, g.barrierWaiting))
	}
}

// lockWords lazily allocates the two shared words of lock id: the
// ticket counter and the now-serving counter.
func (g *Group) lockWords(id int) [2]uint64 {
	if w, ok := g.memLocks[id]; ok {
		return w
	}
	w := [2]uint64{g.m.Alloc(8), g.m.Alloc(8)}
	g.memLocks[id] = w
	return w
}

// memLockAcquire implements a ticket lock through the coherence
// protocol: an atomic fetch-add takes a ticket, then the processor
// spins reading the now-serving word — real invalidation/update traffic
// that the engine-level lock model abstracts away.
func (g *Group) memLockAcquire(p *proc, id int) {
	w := g.lockWords(id)
	m := g.m
	m.AccessRMW(coherent.NodeID(p.id), w[0], func(old uint64) uint64 { return old + 1 },
		func(ticket uint64) {
			var spin func()
			spin = func() {
				m.Access(coherent.NodeID(p.id), w[1], false, 0, func(serving uint64) {
					if serving == ticket {
						m.CtrAt(coherent.NodeID(p.id)).LockAcquires++
						g.advance(p, 0)
						return
					}
					// Back off before re-reading (the copy was
					// invalidated by the releaser, so the re-read is a
					// real protocol transaction).
					m.ScheduleAt(coherent.NodeID(p.id), m.Cfg.LockOverhead, spin)
				})
			}
			spin()
		})
}

// memLockRelease bumps the now-serving word.
func (g *Group) memLockRelease(p *proc, id int) {
	w := g.lockWords(id)
	m := g.m
	m.AccessRMW(coherent.NodeID(p.id), w[1], func(old uint64) uint64 { return old + 1 }, p.onWrite)
}

// call hands request r to the simulator and returns its answer. It
// runs in p's body.
func (p *proc) call(r request) uint64 {
	if !p.yield(r) {
		panic(abandoned{})
	}
	return p.resume
}

func (p *proc) ID() int     { return p.id }
func (p *proc) NProcs() int { return p.g.m.Cfg.Procs }

func (p *proc) Read(addr uint64) uint64 {
	return p.call(request{kind: reqRead, addr: addr})
}

func (p *proc) Write(addr uint64, v uint64) {
	p.call(request{kind: reqWrite, addr: addr, value: v})
}

func (p *proc) FetchAdd(addr uint64, delta uint64) uint64 {
	return p.call(request{kind: reqFetchAdd, addr: addr, value: delta})
}

func (p *proc) Compute(cycles uint64) {
	if cycles == 0 {
		return
	}
	p.call(request{kind: reqCompute, cycles: cycles})
}

func (p *proc) Barrier() { p.call(request{kind: reqBarrier}) }

func (p *proc) Lock(id int) { p.call(request{kind: reqLock, lockID: id}) }

func (p *proc) Unlock(id int) { p.call(request{kind: reqUnlock, lockID: id}) }

func (p *proc) Now() sim.Time { return p.g.m.Now() }
