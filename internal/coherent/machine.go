// Package coherent ties the simulation substrates into a shared-memory
// multiprocessor: processors with private caches, distributed home
// memory modules with per-block directories, and a protocol engine that
// decides what messages flow on a miss.
//
// The machine enforces the paper's execution model: strong consistency
// with one outstanding reference per processor, and per-block request
// serialization at the home (the directory transient states RM_WW,
// WM_WW, WM_LIP of the paper's Figure 4 are realized by the home gate:
// while a transaction is in progress on a block, later requests for the
// same block queue in FIFO order).
package coherent

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"dircc/internal/cache"
	"dircc/internal/kprof"
	"dircc/internal/network"
	"dircc/internal/obs"
	"dircc/internal/sim"
	"dircc/internal/stats"
	"dircc/internal/topology"
)

// Engine is a cache coherence protocol plugged into a Machine.
//
// The machine owns caches, the network, per-block home gates, and
// transaction bookkeeping; the engine owns directory contents, per-line
// metadata (cache.Line.Meta), and the message choreography.
type Engine interface {
	// Name returns the scheme's short name, e.g. "fm", "Dir4NB",
	// "Dir4Tree2".
	Name() string

	// StartMiss begins a read or write miss for txn at txn.Node. The
	// machine has already selected, evicted (via OnEvict) and pinned
	// the destination line. The engine must eventually call
	// m.CompleteTxn(txn, ...).
	StartMiss(m *Machine, txn *Txn)

	// HomeRequest processes a gated request (ReadReq/WriteReq and any
	// engine-specific gated types) at the home node. It runs with the
	// block gate held; the engine must eventually call
	// m.ReleaseHome(msg.Block).
	HomeRequest(m *Machine, msg *Msg)

	// HomeMsg processes an ungated directory-bound message (acks,
	// writebacks).
	HomeMsg(m *Machine, msg *Msg)

	// CacheMsg processes a message addressed to a cache controller.
	CacheMsg(m *Machine, msg *Msg)

	// OnEvict handles replacement of a valid or exclusive line at node
	// n (send Replace_INV, write back, unlink, ... as the scheme
	// requires). The machine clears the line immediately after.
	OnEvict(m *Machine, n NodeID, ln *cache.Line)

	// DirectoryBits returns the total directory storage in bits for a
	// machine with the given configuration and blocksPerNode blocks of
	// shared memory per node (the paper's memory-overhead comparison).
	DirectoryBits(cfg Config, blocksPerNode int) int64
}

// Txn is one outstanding processor transaction (the requester side of a
// miss). The machine owns it: a miss takes a record from its node's free
// list, and the record goes back one cache access after CompleteTxn, so
// an engine may hold a *Txn only while the transaction is outstanding
// (reach it through Machine.Txn). Engines may hang per-transaction
// scratch state off Scratch.
type Txn struct {
	Node  NodeID
	Block BlockID
	// Serial numbers the node's transactions in issue order, from 1.
	// Records are recycled, so code that must tell a node's later
	// transaction from the one it saw earlier compares serials, never
	// pointers.
	Serial uint64
	Write  bool
	// Value is the datum being written (write transactions).
	Value uint64
	// Line is the pinned destination frame.
	Line *cache.Line
	// Issued is when the processor issued the reference.
	Issued sim.Time
	// Served is set, only through Machine.MarkServed, when the home has
	// sent this transaction's reply. Tree protocols use it to decide
	// whether an incoming Inv must be deferred (reply in flight, possibly
	// carrying adopted children) or acknowledged immediately (request
	// still queued at the gate — deferring would deadlock the wave).
	Served bool
	// Deferred collects messages (typically Inv) that arrived for this
	// block while the data reply was still in flight; the machine
	// redelivers them after installation. Engines add to it only
	// through Machine.DeferToTxn, which copies each message into a
	// record of its own; the machine recycles the records after their
	// redelivery.
	Deferred []*Msg
	// Scratch is engine-private per-transaction state.
	Scratch any

	// RMW, when non-nil, makes this write transaction an atomic
	// read-modify-write: the new value is computed from the block's
	// current contents at the serialization point (SerializeWrite), and
	// the processor receives the old value.
	RMW    func(old uint64) uint64
	rmwOld uint64

	// homeCommit marks that this write's CommitWrite rides the home's
	// gate-release companion event (a RelHome reply granted it), so
	// CompleteTxn must not commit from the requester's lane — the
	// store is home-owned state.
	homeCommit bool

	// mach is the machine that issued the transaction; its StartMiss
	// and completion events (txnStart, txnDone) reach it through mach.
	mach *Machine
	// done resumes the processor with ret, the value the reference
	// returns, one cache access after CompleteTxn.
	done func(uint64)
	ret  uint64
	// next links the record into its node's free list while it is not
	// in use (see Machine.newTxn).
	next *Txn
}

// Node is one processing element.
type Node struct {
	ID    NodeID
	Cache *cache.Cache
}

// Machine is the simulated multiprocessor.
type Machine struct {
	Net   *network.Network
	Topo  topology.Topology
	Cfg   Config
	Nodes []*Node
	Ctr   *stats.Counters
	Store *Store
	Mon   *Monitor // nil unless Cfg.Check
	// probe is the observability layer; nil (the default) disables all
	// probing at the cost of one flag check per emission site. Only
	// AttachProbe sets it, together with the state derived from it
	// (events, watchdog and the kernel tick).
	probe *obs.Probe
	// events is set when probe has a trace or sink to feed; emission
	// sites build their events only then.
	events bool

	proto Engine

	// kprof is the kernel profiling layer, non-nil only when attached
	// via AttachKProf on a sharded machine. It observes only kernel
	// structure (waves, lanes, replay) on the host clock, never the
	// simulated event stream.
	kprof *kprof.Profile

	// watchdog is the attached probe's stall watchdog, or nil. Every
	// retired operation reports progress to it (noteProgress), and
	// sendNow feeds it the invalidation counts behind its hottest-blocks
	// table, whether or not a trace is attached.
	watchdog *obs.Watchdog

	// eng is the sequential event kernel and shard the time-windowed
	// parallel one, non-nil when the machine was built with
	// NewShardedMachineOn. Exactly one of them is non-nil; code outside
	// this package drives whichever is live through the scheduling
	// façade (Now, ScheduleAt, ScheduleGlobal, GlobalOpAt, RunKernel).
	eng   *sim.Engine
	shard *sim.Sharded

	// sched is the live kernel, eng or shard, behind the surface both
	// share: the network delivers through it.
	sched sim.NodeScheduler

	// laneCtrs are per-lane counter sinks under the sharded engine
	// (CtrAt routes node-side increments here); quiesce folds them
	// into Ctr in lane order. Nil on sequential machines.
	laneCtrs []*stats.Counters

	// sendLogs are the per-lane message mailboxes: messages sent during
	// a parallel phase are appended here and replayed through the
	// network — in the global deterministic (at, seq) order — by
	// ReplaySend. Nil on sequential machines.
	sendLogs [][]*Msg

	// txns holds the outstanding transactions per node in fixed slot
	// arrays. The paper's strong consistency model uses one per node;
	// the write-buffer relaxation (proc.Config.WriteBuffer) allows one
	// read plus one write in flight concurrently, always on distinct
	// blocks. Slots are atomic pointers because the home's lane reads a
	// requester's transaction (SerializeWrite) while the requester's
	// lane may be installing an unrelated one; the protocol's message
	// causality plus the round barrier order all same-transaction
	// accesses, so the pointed-to Txn needs no further synchronization.
	txns [][]atomic.Pointer[Txn]

	// homes holds each home node's per-block state — the request gate
	// and the engine's directory entry — in one dense slice of slots
	// per home, indexed as slotOf says. Only the home's lane touches its
	// slice. A home's slots grow on first use past their end, sized to
	// the allocated address space (growSlots).
	homes [][]homeSlot

	// spare holds each node's free lists of hit-completion and
	// transaction records and its last issue serial: a hit takes a hit
	// record, a miss a transaction record and the next serial, and the
	// record's completion event returns it before resuming the
	// processor. Only the node's own lane touches its entry.
	spare []nodeSpare

	// free holds each lane's free lists of message records and RelHome
	// companion records (one lane on a sequential machine). A send
	// takes a message record from its sender's lane; the record's last
	// dispatch returns it to the lane of its destination, where that
	// dispatch ran. Reset keeps the lists; records that dropped events
	// still reference are never returned, and the GC reclaims them.
	free []msgLane

	// allocTop is the next free byte of the shared address space.
	allocTop uint64

	// sendHook, when set, intercepts message transport: instead of
	// traveling through the network model, each sent message record is
	// handed to the hook, which delivers it later with Deliver. The
	// model checker (internal/check) uses this to own the set of
	// in-flight messages and explore every delivery order.
	sendHook func(msg *Msg)

	// laneAudit, when non-nil, records which nodes' lanes executed a
	// sanctioned event since the last LaneAuditReset — the model
	// checker's dynamic lane-partition abstraction (see EnableLaneAudit).
	// Sequential machines only.
	laneAudit map[NodeID]bool
	// allAudit marks that a global event (GlobalOpAt, ScheduleGlobal)
	// ran since the last reset; global events may touch any lane's state.
	allAudit bool

	// dirBlocks is the slice DirBlocks returns, reused from call to
	// call so that rendering canonical state allocates nothing.
	dirBlocks []BlockID

	// quiet is the invariant checks' scratch (CheckDrained,
	// CheckQuiescent), kept across Reset.
	quiet quiet
}

// nodeSpare is one node's entry in Machine.spare.
type nodeSpare struct {
	hits   *hitDone
	txns   *Txn
	serial uint64
}

// txnSlots bounds concurrently outstanding transactions per node: one
// read plus one write under the write-buffer relaxation, with headroom
// for checker-driven schedules.
const txnSlots = 4

// homeSlot is one block's state at its home. The gate serializes
// gated requests: busy while one is being served, with later arrivals
// queued in FIFO order. dir is the engine's directory entry (Dir,
// SetDir).
type homeSlot struct {
	dir   any
	busy  bool
	queue []*Msg
}

// msgLane is one lane's free lists: message records and RelHome
// companion records, padded so adjacent lanes never share a cache line.
// During a parallel phase only the owning lane touches them; outside
// one the lanes are parked.
type msgLane struct {
	msgs *Msg
	rels *homeRelease
	_    [48]byte // two pointers are 16 bytes; pad to a 64-byte line
}

// NewMachine builds a machine over a hypercube sized for cfg.Procs.
func NewMachine(cfg Config, proto Engine) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if proto == nil {
		return nil, fmt.Errorf("coherent: nil protocol engine")
	}
	topo, err := topology.HypercubeForNodes(cfg.Procs)
	if err != nil {
		return nil, err
	}
	return NewMachineOn(cfg, proto, topo)
}

// NewMachineOn builds a machine over an explicit topology, which must
// have at least cfg.Procs nodes.
func NewMachineOn(cfg Config, proto Engine, topo topology.Topology) (*Machine, error) {
	return newMachine(cfg, proto, topo, 1)
}

// NewShardedMachine builds a machine over a hypercube that simulates on
// the time-windowed parallel kernel with the given shard count. See
// NewShardedMachineOn for the restrictions.
func NewShardedMachine(cfg Config, proto Engine, shards int) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if proto == nil {
		return nil, fmt.Errorf("coherent: nil protocol engine")
	}
	topo, err := topology.HypercubeForNodes(cfg.Procs)
	if err != nil {
		return nil, err
	}
	return NewShardedMachineOn(cfg, proto, topo, shards)
}

// NewShardedMachineOn builds a machine whose simulation runs on
// sim.Sharded with the given shard count, partitioning the nodes
// across worker lanes. Results — cycle counts, counters, memory and
// cache contents — are byte-identical to the sequential machine at
// every shard count. shards <= 1 builds a plain sequential machine.
//
// Restrictions, each refused with an error when shards > 1:
//   - checked runs (Cfg.Check): the monitor inspects all caches at
//     completion events, which is inherently cross-lane. Callers
//     wanting the differential oracle run the same experiment
//     sequentially instead.
//   - memory-resident locks (Cfg.MemLocks): the ticket locks allocate
//     their words (Alloc) and keep their addresses in a map shared by
//     every processor, from whichever lane the locking node runs on.
//
// The probe (AttachProbe) is sequential-only too. Every engine in this
// module keeps to the lane contract (see ScheduleAt and DeferAt);
// cmd/dirccvet's laneguard analyzer enforces it on every package that
// declares an engine.
func NewShardedMachineOn(cfg Config, proto Engine, topo topology.Topology, shards int) (*Machine, error) {
	if shards > 1 && cfg.Check {
		return nil, fmt.Errorf("coherent: checked runs require the sequential engine")
	}
	if shards > 1 && cfg.MemLocks {
		return nil, fmt.Errorf("coherent: memory-resident locks require the sequential engine")
	}
	return newMachine(cfg, proto, topo, shards)
}

// ShardSafe was the opt-in marker for engines allowed on the sharded
// kernel.
//
// Deprecated: nothing consults it. Every engine in this module keeps
// to the lane contract, and laneguard enforces that contract on every
// package that declares an engine. The interface stays declared only
// because wrapper engines (perfbench's timing decorator) forward it.
type ShardSafe interface {
	ShardSafeEngine() bool
}

func newMachine(cfg Config, proto Engine, topo topology.Topology, shards int) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if proto == nil {
		return nil, fmt.Errorf("coherent: nil protocol engine")
	}
	if topo.Nodes() < cfg.Procs {
		return nil, fmt.Errorf("coherent: topology %s has %d nodes, need %d",
			topo.Name(), topo.Nodes(), cfg.Procs)
	}
	ctr := stats.NewCounters()
	m := &Machine{
		Topo:  topo,
		Cfg:   cfg,
		Ctr:   ctr,
		Store: NewStore(),
		txns:  make([][]atomic.Pointer[Txn], cfg.Procs),
		homes: make([][]homeSlot, cfg.Procs),
		spare: make([]nodeSpare, cfg.Procs),
	}
	var sched sim.NodeScheduler
	if shards > 1 {
		sh := sim.NewSharded(cfg.Procs, shards)
		sh.MaxEvents = cfg.MaxEvents
		sh.SetReplayer(m)
		m.shard = sh
		m.laneCtrs = make([]*stats.Counters, sh.Shards())
		for i := range m.laneCtrs {
			m.laneCtrs[i] = stats.NewCounters()
		}
		m.sendLogs = make([][]*Msg, sh.Shards())
		sched = sh
	} else {
		eng := sim.NewEngine()
		eng.MaxEvents = cfg.MaxEvents
		m.eng = eng
		sched = eng
	}
	m.sched = sched
	m.free = make([]msgLane, m.Shards())
	net, err := network.New(sched, topo, cfg.Net, ctr)
	if err != nil {
		return nil, err
	}
	m.Net = net
	m.setUp(proto)
	return m, nil
}

// setUp gives every node an empty cache, free transaction slots, and
// home slots with no held gate and no directory entry, starts the
// monitor with no findings, and binds proto, preparing it on this
// machine. newMachine runs it on a machine with no nodes yet,
// allocating their storage; Reset runs it on a used machine, clearing
// that storage in place and returning the records it still holds —
// outstanding transactions, the messages deferred on them and the
// requests queued at gates — to the free lists. Per-run state set up
// here starts the same way in both.
func (m *Machine) setUp(proto Engine) {
	for i := range m.Cfg.Procs {
		if i == len(m.Nodes) {
			m.Nodes = append(m.Nodes, &Node{
				ID:    NodeID(i),
				Cache: cache.MustNew(m.Cfg.CacheSets, m.Cfg.CacheAssoc()),
			})
			m.txns[i] = make([]atomic.Pointer[Txn], txnSlots)
			continue
		}
		m.Nodes[i].Cache.Reset()
		for j := range m.txns[i] {
			if t := m.txns[i][j].Swap(nil); t != nil {
				m.dropTxn(t)
			}
		}
		m.spare[i].serial = 0
		for k := range m.homes[i] {
			for _, q := range m.homes[i][k].queue {
				m.freeMsg(q)
			}
		}
		clear(m.homes[i])
	}
	if m.Cfg.Check {
		if m.Mon == nil {
			m.Mon = NewMonitor(m)
		}
		m.Mon.errs = nil
	}
	m.proto = proto
	if p, ok := proto.(Preparer); ok {
		p.Prepare(m)
	}
}

// Reset returns a sequential machine to the state NewMachine leaves it
// in, bound to proto, which must be a new engine: no engine state
// survives from one run to the next. The storage the last run grew is
// kept — the kernel queue, the network's free-time arrays, the cache
// indexes, transaction slots and free lists, home slots, store arrays,
// counters and monitor — so a caller that runs many short simulations
// of one configuration (the model checker replays one path per
// explored transition) stops paying for a machine each time. The send hook and
// the lane audit stay installed; a probe or kernel profile is
// detached.
func (m *Machine) Reset(proto Engine) {
	if m.shard != nil {
		panic("coherent: Reset requires the sequential kernel")
	}
	if proto == nil {
		panic("coherent: Reset with nil protocol engine")
	}
	m.AttachProbe(nil)
	m.kprof = nil
	m.eng.Reset()
	m.Net.Reset()
	msgs := m.Ctr.MsgByType
	clear(msgs)
	*m.Ctr = stats.Counters{MsgByType: msgs}
	m.Store.reset()
	m.allocTop = 0
	m.LaneAuditReset()
	m.setUp(proto)
}

// Preparer is implemented by protocol engines that bind to their
// machine at construction — typically to keep per-block directory
// records in the machine's per-home-node dir storage (Dir/SetDir),
// which is what makes an engine's state lane-local under the sharded
// kernel.
type Preparer interface {
	Prepare(m *Machine)
}

// Protocol returns the attached engine.
func (m *Machine) Protocol() Engine { return m.proto }

// Shards returns the number of worker lanes the simulation runs on (1
// for the sequential engine).
func (m *Machine) Shards() int {
	if m.shard != nil {
		return m.shard.Shards()
	}
	return 1
}

// ---------------------------------------------------------------------
// Scheduling façade
//
// Every machine-internal and protocol-engine scheduling decision goes
// through these four methods, which encode the sharded engine's node
// affinity contract. On a sequential machine they degrade to exactly
// the pre-sharding behavior (same kernel calls, same seq allocation),
// so sequential results are bit-for-bit unchanged.
// ---------------------------------------------------------------------

// Now returns the current simulated time.
func (m *Machine) Now() sim.Time {
	if m.shard != nil {
		return m.shard.Now()
	}
	return m.eng.Now()
}

// ScheduleAt schedules fn after delay cycles on node n's lane. fn may
// touch only state owned by n's lane (n's caches and transactions, and
// — when n is a home — its gates and directory entries).
func (m *Machine) ScheduleAt(n NodeID, delay sim.Time, fn func()) {
	m.scheduleAt(n, delay, sim.Func(fn))
}

// scheduleAt is ScheduleAt for a handler: the machine's own records
// (messages, transactions, hit completions) fire themselves through it
// without a closure. Under the lane audit the handler is wrapped so the
// audit sees n's lane run.
//
//dirccvet:hotpath
func (m *Machine) scheduleAt(n NodeID, delay sim.Time, h sim.Handler) {
	if m.shard != nil {
		m.shard.ScheduleNode(int(n), delay, h)
		return
	}
	if m.laneAudit != nil {
		inner := h
		//dirccvet:allow allocguard the lane audit runs only under the model checker
		h = sim.Func(func() { m.laneAudit[n] = true; inner.Fire() })
	}
	m.eng.Schedule(delay, h)
}

// ScheduleGlobal schedules fn after delay cycles as a global event: it
// runs single-threaded between parallel phases and may touch any
// state. Never call it from inside a node event on a sharded machine
// (use GlobalOpAt there).
func (m *Machine) ScheduleGlobal(delay sim.Time, fn func()) {
	if m.shard != nil {
		m.shard.ScheduleGlobal(delay, sim.Func(fn))
		return
	}
	if m.laneAudit != nil {
		inner := fn
		fn = func() { m.auditGlobal(); inner() }
	}
	m.eng.Schedule(delay, sim.Func(fn))
}

// GlobalOpAt runs fn — an operation on cross-lane shared state, issued
// by the event currently executing at node n — at the current instant.
// On a sequential machine it is a plain call; on a sharded machine fn
// is deferred to the replay step, where it runs single-threaded in the
// deterministic global order.
func (m *Machine) GlobalOpAt(n NodeID, fn func()) {
	if m.shard != nil {
		m.shard.GlobalOp(int(n), fn)
		return
	}
	m.auditGlobal()
	fn()
}

// DeferAt schedules fn at the current instant on node target's lane,
// issued by the event currently executing at node issuer. It is the
// chain-surgery seam: an engine handler that must mutate state owned
// by a foreign node (splice a chain link, continue a teardown walk,
// patch a neighbour's line metadata) wraps the mutation in DeferAt
// instead of reaching across lanes.
//
// On a sequential machine it is ScheduleAt(target, 0, fn): the event's
// sequence number is allocated inline, at the issuing event's position
// in execution order. On a sharded machine the schedule itself is
// deferred through the kernel's global-op log and replayed at the
// issuing event's merge position — where ScheduleNode allocates the
// SAME sequence number the sequential engine would have. fn therefore
// fires at the same instant, in the same order, on target's own lane,
// under every shard count. Ops deferred by sequentially-ordered events
// onto the same target replay in issue order, so cause→effect chains
// (a completion's bookkeeping before a later eviction's scan) are
// preserved.
func (m *Machine) DeferAt(issuer, target NodeID, fn func()) {
	if m.shard != nil && m.shard.InPhase() {
		m.shard.GlobalOp(int(issuer), func() {
			m.shard.ScheduleNode(int(target), 0, sim.Func(fn))
		})
		return
	}
	m.ScheduleAt(target, 0, fn)
}

// laneOf returns the lane that owns node n (0 on a sequential machine).
//
//dirccvet:hotpath
func (m *Machine) laneOf(n NodeID) int {
	if m.shard != nil {
		return m.shard.LaneOf(int(n))
	}
	return 0
}

// CtrAt returns the counter sink for an event executing at node n: the
// machine counters on a sequential machine, the lane-local sink on a
// sharded one (folded into Ctr in deterministic lane order at
// quiesce).
//
//dirccvet:hotpath
func (m *Machine) CtrAt(n NodeID) *stats.Counters {
	if m.laneCtrs != nil {
		return m.laneCtrs[m.shard.LaneOf(int(n))]
	}
	return m.Ctr
}

// ReplaySend implements sim.SendReplayer: it injects the idx-th
// deferred message of the given lane's mailbox into the network, in
// the deterministic global order the sharded kernel derives from the
// parallel phase. Exhausting a mailbox resets it for the next phase.
func (m *Machine) ReplaySend(lane, idx int) {
	msg := m.sendLogs[lane][idx]
	m.sendLogs[lane][idx] = nil
	if idx == len(m.sendLogs[lane])-1 {
		m.sendLogs[lane] = m.sendLogs[lane][:0]
	}
	if msg.RelHome && m.kprof != nil {
		m.kprof.NoteRelHome()
	}
	m.sendNow(msg)
}

// emit stamps e with the current instant and hands it to the probe.
// Callers check m.events first, so no event is built without a
// consumer.
func (m *Machine) emit(e obs.Event, idSlot *int64) {
	e.At = uint64(m.Now())
	if m.probe != nil {
		m.probe.Finalize(e, idSlot)
	}
}

// sendNow injects msg into the network model, with the message itself
// as its delivery event (msgDelivery). For RelHome messages it also
// schedules the write commit and home-gate release as a companion
// event at the delivery instant (a homeRelease record from the home
// lane's free list; sendNow runs single-threaded, inline on a
// sequential machine and in the replay step on a sharded one, so it may
// take from any lane's list), consuming the sequence
// number right after the delivery's: both are then ordered exactly
// where the receiving handler used to perform them inline — after the
// delivery, before any other same-instant event — while executing on
// the home's own lane, never the receiver's. (CommitWrite must ride the
// companion, not CompleteTxn: the store's in-flight flags are
// home-owned state, and the requester's lane mutating them would race
// with the home lane admitting the next queued writer.)
//
//dirccvet:hotpath
func (m *Machine) sendNow(msg *Msg) {
	if m.watchdog != nil {
		switch msg.Type {
		case MsgInv, MsgUpdate, MsgReplaceInv:
			//dirccvet:allow allocguard the watchdog builds its per-block count map once, not per message
			m.watchdog.NoteInv(uint64(msg.Block))
		}
	}
	//dirccvet:allow allocguard String formats only out-of-range types; every type an engine sends has a constant name
	arrive := m.Net.Send(msg.Type.String(), msg.Src, msg.Dst, msg.Bytes(m.Cfg), (*msgDelivery)(msg))
	if msg.RelHome {
		home := m.Home(msg.Block)
		m.sched.AtNode(int(home), arrive, m.newRelease(home, msg.Block))
	}
}

// newRelease takes a RelHome companion record for block b from the free
// list of home's lane, where its event fires and returns it. It stays
// out of line so that allocguard attributes its one allocation, on an
// empty list, here rather than to its caller.
//
//dirccvet:hotpath
//go:noinline
func (m *Machine) newRelease(home NodeID, b BlockID) *homeRelease {
	l := &m.free[m.laneOf(home)]
	r := l.rels
	if r == nil {
		//dirccvet:allow allocguard a lane allocates a companion only while more of its gate releases are pending than ever before
		return &homeRelease{mach: m, block: b}
	}
	l.rels = r.next
	r.block, r.next = b, nil
	return r
}

// markHomeCommit flags the receiver's write transaction, just before a
// RelHome reply is dispatched, that its commit happens on the home's
// companion event rather than in CompleteTxn. It runs on the
// receiver's lane and touches only the receiver's transaction slot.
func (m *Machine) markHomeCommit(msg *Msg) {
	if !msg.RelHome {
		return
	}
	if txn := m.Txn(msg.Requester, msg.Block); txn != nil && txn.Write {
		txn.homeCommit = true
	}
}

// ---------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------

// AttachProbe installs the observability layer: the machine's
// emission sites start feeding p, the kernel ticks it before every
// event, and the network reports transport timing. A watchdog without a
// dump function gets the machine's state dump. Call before running the
// workload. The probe runs on the sequential kernel only; AttachProbe
// panics on a sharded machine.
func (m *Machine) AttachProbe(p *obs.Probe) {
	if m.shard != nil {
		panic("coherent: AttachProbe requires the sequential kernel")
	}
	m.probe = p
	m.events = false
	m.watchdog = nil
	var tick func(sim.Time)
	if p == nil {
		m.Net.SetProbe(nil)
	} else {
		m.events = p.WantsEvents()
		if wd := p.Watchdog; wd != nil {
			m.watchdog = wd
			if wd.Dump == nil {
				wd.Dump = m.DumpState
			}
		}
		if p.Sampler != nil {
			m.Net.SetProbe(func(start, arrive, unloaded sim.Time) {
				p.NetSend(uint64(start), uint64(arrive), uint64(unloaded))
			})
		}
		tick = func(t sim.Time) { p.Tick(uint64(t)) }
	}
	m.eng.SetTick(tick)
}

// noteProgress tells the watchdog, when one is attached, that a
// processor retired an operation at the current cycle.
func (m *Machine) noteProgress() {
	if m.watchdog != nil {
		m.watchdog.Progress(uint64(m.Now()))
	}
}

// AttachKProf attaches a kernel profile to the machine's parallel
// kernel. No-op on sequential machines (there is no kernel structure
// to profile — S=1 runs use the plain event loop). Call before the
// workload; read the profile after Quiesce.
func (m *Machine) AttachKProf(p *kprof.Profile) {
	m.kprof = p
	if m.shard != nil {
		m.shard.SetProf(p)
	}
}

// Executed returns the number of simulated events fired so far, on
// whichever kernel is live.
func (m *Machine) Executed() uint64 { return m.sched.Executed() }

// Tracing reports whether an event trace is attached. Engines guard
// label construction with it so disabled-mode stays allocation-free.
func (m *Machine) Tracing() bool { return m.probe != nil && m.probe.Trace != nil }

// TraceDir records a directory transition for block b; label is a
// protocol-specific description. Callers must guard with Tracing()
// when the label requires formatting.
func (m *Machine) TraceDir(b BlockID, label string) {
	if m.events {
		home := m.Home(b)
		m.emit(obs.Event{Kind: obs.KindDirState, Src: int(home), Dst: int(home),
			Block: uint64(b), Label: label}, nil)
	}
}

// TraceState records a cache-line state transition at node n.
func (m *Machine) TraceState(n NodeID, b BlockID, from, to cache.State) {
	if m.events {
		m.emit(obs.Event{Kind: obs.KindCacheState, Src: int(n), Dst: int(n),
			Block: uint64(b), Label: from.String() + "->" + to.String()}, nil)
	}
}

// Invalidate removes node n's copy of block b (if any), recording the
// state transition in the trace. Engines use it instead of touching
// the cache directly so the probe layer sees every invalidation.
func (m *Machine) Invalidate(n NodeID, b BlockID) (cache.State, bool) {
	st, ok := m.Nodes[n].Cache.Invalidate(b)
	if ok {
		m.TraceState(n, b, st, cache.Invalid)
	}
	return st, ok
}

// DumpState writes a stall-diagnosis snapshot: outstanding
// transactions, busy home gates with their queues, in-flight message
// count, and the directory entries of every involved block. The
// watchdog invokes it when it fires.
func (m *Machine) DumpState(w io.Writer) {
	fmt.Fprintf(w, "machine state at cycle %d (%s, %d procs): %d messages in flight\n",
		m.Now(), m.proto.Name(), m.Cfg.Procs, m.Net.InFlight())
	blocks := make(map[BlockID]bool)
	for n := range m.txns {
		for _, txn := range m.appendNodeTxns(nil, NodeID(n)) {
			kind := "read"
			if txn.Write {
				kind = "write"
			}
			fmt.Fprintf(w, "  node %d: outstanding %s on block %d (issued %d, served=%v, %d deferred)\n",
				n, kind, txn.Block, txn.Issued, txn.Served, len(txn.Deferred))
			blocks[txn.Block] = true
		}
	}
	for _, b := range m.heldGates() {
		g := m.findSlot(b)
		types := make([]string, 0, len(g.queue))
		for _, q := range g.queue {
			types = append(types, fmt.Sprintf("%s from %d", q.Type, q.Requester))
		}
		fmt.Fprintf(w, "  gate block %d: busy=%v, %d queued %v\n", b, g.busy, len(g.queue), types)
		blocks[b] = true
	}
	dirBlocks := make([]BlockID, 0, len(blocks))
	for b := range blocks {
		dirBlocks = append(dirBlocks, b)
	}
	sort.Slice(dirBlocks, func(i, j int) bool { return dirBlocks[i] < dirBlocks[j] })
	bd, _ := m.proto.(BlockDumper)
	for _, b := range dirBlocks {
		switch {
		case bd != nil:
			fmt.Fprintf(w, "  dir block %d (home %d): %s\n", b, m.Home(b), bd.DescribeBlock(b))
		case m.Dir(b) != nil:
			fmt.Fprintf(w, "  dir block %d (home %d): %v\n", b, m.Home(b), m.Dir(b))
		}
	}
}

// BlockDumper is implemented by protocol engines that can describe
// their per-block directory state for stall diagnostics. All engines
// in this repository implement it; the machine degrades gracefully if
// a third-party engine does not.
type BlockDumper interface {
	DescribeBlock(b BlockID) string
}

// Home returns the home node of block b: block-interleaved by default,
// page-interleaved when Config.HomePageBlocks > 1.
func (m *Machine) Home(b BlockID) NodeID {
	unit := uint64(b)
	if pg := m.Cfg.HomePageBlocks; pg > 1 {
		unit = uint64(b) / uint64(pg)
	}
	return NodeID(unit % uint64(m.Cfg.Procs))
}

// BlockOf maps a byte address to its block.
func (m *Machine) BlockOf(addr uint64) BlockID { return BlockID(addr / uint64(m.Cfg.BlockBytes)) }

// Alloc reserves n bytes of shared address space, aligned up to a block
// boundary, and returns the base address.
func (m *Machine) Alloc(n uint64) uint64 {
	base := m.allocTop
	bb := uint64(m.Cfg.BlockBytes)
	m.allocTop += (n + bb - 1) / bb * bb
	return base
}

// Dir returns the engine-owned directory entry for b, or nil. Only
// b's home may hold directory state, so the entry lives in b's slot
// among the home's slots (lane-local under the sharded engine): an
// index, not a hash lookup.
func (m *Machine) Dir(b BlockID) any {
	if s := m.findSlot(b); s != nil {
		return s.dir
	}
	return nil
}

// SetDir stores the engine-owned directory entry for b.
func (m *Machine) SetDir(b BlockID, v any) {
	if v == nil {
		if s := m.findSlot(b); s != nil {
			s.dir = nil
		}
		return
	}
	m.slot(b).dir = v
}

// DirBlocks returns every block holding directory state, sorted —
// deterministic iteration for canonical dumps. The slice is the
// machine's: the next call overwrites it. Call from quiesced
// (single-threaded) contexts.
func (m *Machine) DirBlocks() []BlockID {
	m.dirBlocks = m.appendSlotBlocks(m.dirBlocks[:0], func(s *homeSlot) bool { return s.dir != nil })
	return m.dirBlocks
}

// heldGates returns every block whose gate is held, sorted. Call from
// quiesced (single-threaded) contexts.
func (m *Machine) heldGates() []BlockID {
	return m.appendSlotBlocks(nil, func(s *homeSlot) bool { return s.busy })
}

// appendSlotBlocks appends every block whose home slot satisfies keep
// to out, sorted.
func (m *Machine) appendSlotBlocks(out []BlockID, keep func(*homeSlot) bool) []BlockID {
	for home, slots := range m.homes {
		for i := range slots {
			if keep(&slots[i]) {
				out = append(out, m.slotBlock(NodeID(home), i))
			}
		}
	}
	slices.Sort(out)
	return out
}

// slotOf returns b's home, as Home does, and b's index among the
// home's slots: the home serves every P-th block, or every P-th page of
// HomePageBlocks blocks, and its slots list them in block order.
func (m *Machine) slotOf(b BlockID) (NodeID, int) {
	p := uint64(m.Cfg.Procs)
	if pg := uint64(m.Cfg.HomePageBlocks); pg > 1 {
		unit := uint64(b) / pg
		return NodeID(unit % p), int(unit/p*pg + uint64(b)%pg)
	}
	return NodeID(uint64(b) % p), int(uint64(b) / p)
}

// slotBlock is slotOf's inverse: the block in home's slot i.
func (m *Machine) slotBlock(home NodeID, i int) BlockID {
	pg := max(m.Cfg.HomePageBlocks, 1)
	unit := i/pg*m.Cfg.Procs + int(home)
	return BlockID(unit*pg + i%pg)
}

// findSlot returns b's slot at its home, or nil when the home's slots
// do not reach b yet (b has no gate and no directory entry).
func (m *Machine) findSlot(b BlockID) *homeSlot {
	home, i := m.slotOf(b)
	if slots := m.homes[home]; i < len(slots) {
		return &slots[i]
	}
	return nil
}

// slot returns b's slot at its home, growing the home's slots to reach
// it.
func (m *Machine) slot(b BlockID) *homeSlot {
	home, i := m.slotOf(b)
	if slots := m.homes[home]; i < len(slots) {
		return &slots[i]
	}
	return m.growSlots(home, i)
}

// growSlots extends home's slots to reach index i and, in the same
// allocation, every block of the allocated address space that home
// serves, so a run whose blocks are allocated up front grows each home
// once. It returns slot i.
func (m *Machine) growSlots(home NodeID, i int) *homeSlot {
	pg := max(m.Cfg.HomePageBlocks, 1)
	pages := (int(m.allocTop/uint64(m.Cfg.BlockBytes)) + pg - 1) / pg
	n := max(i+1, (pages+m.Cfg.Procs-1)/m.Cfg.Procs*pg)
	grown := make([]homeSlot, n)
	copy(grown, m.homes[home])
	m.homes[home] = grown
	return &grown[i]
}

// Txn returns node n's outstanding transaction on block b, or nil.
func (m *Machine) Txn(n NodeID, b BlockID) *Txn {
	slots := m.txns[n]
	for i := range slots {
		if t := slots[i].Load(); t != nil && t.Block == b {
			return t
		}
	}
	return nil
}

// putTxn installs txn in a free slot of its node.
func (m *Machine) putTxn(txn *Txn) {
	slots := m.txns[txn.Node]
	for i := range slots {
		if slots[i].Load() == nil {
			slots[i].Store(txn)
			return
		}
	}
	panic(fmt.Sprintf("coherent: node %d exceeded %d outstanding transactions", txn.Node, txnSlots))
}

// delTxn removes txn from its node's slots.
func (m *Machine) delTxn(txn *Txn) {
	slots := m.txns[txn.Node]
	for i := range slots {
		if slots[i].Load() == txn {
			slots[i].Store(nil)
			return
		}
	}
	panic(fmt.Sprintf("coherent: delTxn for node %d found no matching slot", txn.Node))
}

// appendNodeTxns appends node n's outstanding transactions to dst,
// ordered by block (deterministic iteration for dumps and canonical
// state).
func (m *Machine) appendNodeTxns(dst []*Txn, n NodeID) []*Txn {
	start := len(dst)
	slots := m.txns[n]
	for i := range slots {
		if t := slots[i].Load(); t != nil {
			dst = append(dst, t)
		}
	}
	slices.SortFunc(dst[start:], func(a, b *Txn) int { return cmp.Compare(a.Block, b.Block) })
	return dst
}

// Outstanding returns the number of transactions node n has in flight.
func (m *Machine) Outstanding(n NodeID) int {
	c := 0
	slots := m.txns[n]
	for i := range slots {
		if slots[i].Load() != nil {
			c++
		}
	}
	return c
}

// ---------------------------------------------------------------------
// Processor interface
// ---------------------------------------------------------------------

// Access performs one shared-memory reference from node n. done runs
// when the reference completes (for reads, with the value read). Only
// one reference per node may be outstanding; a second concurrent
// Access panics, because it indicates a broken processor model.
//
//dirccvet:hotpath
func (m *Machine) Access(n NodeID, addr uint64, write bool, value uint64, done func(uint64)) {
	m.auditLane(n)
	b := m.BlockOf(addr)
	if m.Txn(n, b) != nil {
		//dirccvet:allow allocguard panic formatting is off the steady-state path
		panic(fmt.Sprintf("coherent: node %d issued a second outstanding reference on block %d", n, b))
	}
	node := m.Nodes[n]
	ln := node.Cache.Lookup(b)

	ctr := m.CtrAt(n)
	if write {
		ctr.Writes++
	} else {
		ctr.Reads++
	}

	// Hit paths. A write hits only on an Exclusive copy (a Valid copy
	// needs an ownership upgrade, which the paper treats as a write
	// miss served with fresh data from home).
	if ln != nil && !write && ln.State != cache.Invalid {
		ctr.ReadHits++
		node.Cache.Touch(ln)
		v := ln.Val
		if m.Mon != nil {
			m.Mon.OnReadHit(n, b, v)
		}
		m.noteProgress()
		m.completeHit(n, done, v)
		return
	}
	if ln != nil && write && ln.State == cache.Exclusive {
		ctr.WriteHits++
		node.Cache.Touch(ln)
		old := ln.Val
		ln.Val = value
		// The exclusive owner is the serialization point for its own
		// writes; the authoritative image follows it.
		m.Store.OwnerValue(b, value)
		m.noteProgress()
		m.completeHit(n, done, old)
		return
	}

	if write {
		ctr.WriteMisses++
	} else {
		ctr.ReadMisses++
	}
	txn := m.newTxn(n, b, write, done)
	txn.Value = value
	m.issueMiss(txn, ctr)
}

// newTxn takes a transaction record for node n's miss on block b from
// n's free list and numbers it with n's next serial. It stays out of
// line so that allocguard attributes its one allocation, on an empty
// list, here rather than to its callers.
//
//dirccvet:hotpath
//go:noinline
func (m *Machine) newTxn(n NodeID, b BlockID, write bool, done func(uint64)) *Txn {
	sp := &m.spare[n]
	t := sp.txns
	if t == nil {
		//dirccvet:allow allocguard a node allocates a transaction only while more of its misses are in flight than ever before
		t = new(Txn)
	} else {
		sp.txns = t.next
	}
	sp.serial++
	*t = Txn{Node: n, Block: b, Serial: sp.serial, Write: write,
		Deferred: t.Deferred[:0], mach: m, done: done}
	return t
}

// dropTxn returns t, a transaction still outstanding when the machine
// is reset, to its node's free list, and the records of the messages
// deferred on it to theirs. Like txnDone, it leaves the parked record
// no reference but its Deferred storage.
func (m *Machine) dropTxn(t *Txn) {
	for _, d := range t.Deferred {
		m.freeMsg(d)
	}
	clear(t.Deferred)
	sp := &m.spare[t.Node]
	*t = Txn{Deferred: t.Deferred[:0], next: sp.txns}
	sp.txns = t
}

// completeHit schedules a hit's completion one cache access from now:
// done(v), fired by a record from n's free list.
//
//dirccvet:hotpath
func (m *Machine) completeHit(n NodeID, done func(uint64), v uint64) {
	sp := &m.spare[n]
	h := sp.hits
	if h == nil {
		//dirccvet:allow allocguard a node allocates a hit record only while more of its hits are in flight than ever before
		h = &hitDone{mach: m, node: n}
	} else {
		sp.hits = h.next
	}
	h.done, h.v, h.next = done, v, nil
	m.scheduleAt(n, m.Cfg.CacheLatency, h)
}

// AccessRMW performs an atomic read-modify-write from node n: f maps
// the block's value at the write's serialization point to the stored
// value, and done receives the old value.
//
// RMWs always travel to the home (an at-memory fetch-and-op, in the
// NYU-Ultracomputer tradition), even when the issuer holds the block
// exclusively: f is applied under the block gate in serialization
// order, which makes concurrent RMWs atomic with respect to each other
// and to gated writes under every protocol engine. A plain store by an
// exclusive owner racing a third party's in-flight RMW is a program
// data race (use FetchAdd/locks for such words).
func (m *Machine) AccessRMW(n NodeID, addr uint64, f func(old uint64) uint64, done func(old uint64)) {
	m.auditLane(n)
	if f == nil {
		panic("coherent: AccessRMW with nil function")
	}
	b := m.BlockOf(addr)
	if m.Txn(n, b) != nil {
		panic(fmt.Sprintf("coherent: node %d issued a second outstanding reference on block %d", n, b))
	}
	ctr := m.CtrAt(n)
	ctr.Writes++
	ctr.WriteMisses++
	txn := m.newTxn(n, b, true, done)
	txn.RMW = f
	m.issueMiss(txn, ctr)
}

// issueMiss is the miss path Access and AccessRMW share: it selects the
// destination frame for txn's block, evicting its live contents first,
// pins it, installs txn, and hands txn to the engine's StartMiss once
// the miss is detected, one cache access later. ctr is the node's
// counter sink.
//
//dirccvet:hotpath
func (m *Machine) issueMiss(txn *Txn, ctr *stats.Counters) {
	n, b := txn.Node, txn.Block
	node := m.Nodes[n]
	victim := node.Cache.Victim(b)
	if victim == nil {
		//dirccvet:allow allocguard panic formatting is off the steady-state path
		panic(fmt.Sprintf("coherent: node %d has no evictable frame for block %d", n, b))
	}
	if victim.Block != b || node.Cache.Lookup(b) != victim {
		// Fresh or foreign frame; evict live contents first.
		if node.Cache.Lookup(victim.Block) == victim && victim.State != cache.Invalid {
			ctr.Replacements++
			m.proto.OnEvict(m, n, victim)
		}
		node.Cache.Evict(victim)
	}
	victim.Pinned = true
	txn.Line = victim
	txn.Issued = m.Now()
	m.putTxn(txn)
	if m.events {
		m.emit(obs.Event{Kind: obs.KindTxnStart, Src: int(n), Dst: int(n),
			Block: uint64(b), Write: txn.Write}, nil)
	}
	m.scheduleAt(n, m.Cfg.CacheLatency, (*txnStart)(txn))
}

// CompleteTxn finishes txn: installs the line in state st with value
// val and engine metadata meta, redelivers deferred messages, and
// resumes the processor. Engines call this exactly once per StartMiss.
//
//dirccvet:hotpath
func (m *Machine) CompleteTxn(txn *Txn, st cache.State, val uint64, meta any) {
	if m.Txn(txn.Node, txn.Block) != txn {
		//dirccvet:allow allocguard panic formatting is off the steady-state path
		panic(fmt.Sprintf("coherent: CompleteTxn for node %d does not match its outstanding txn", txn.Node))
	}
	node := m.Nodes[txn.Node]
	ln := txn.Line
	ln.Pinned = false
	node.Cache.Install(ln, txn.Block, st)
	ln.Val = val
	ln.Meta = meta

	if txn.Write {
		if !txn.homeCommit {
			m.Store.CommitWrite(txn.Block)
		}
		m.CtrAt(txn.Node).WriteMissCyc.Observe(uint64(m.Now() - txn.Issued))
		if m.Mon != nil {
			m.Mon.OnWriteComplete(txn.Node, txn.Block)
		}
	} else {
		m.CtrAt(txn.Node).ReadMissCycles.Observe(uint64(m.Now() - txn.Issued))
		if m.Mon != nil {
			m.Mon.OnReadComplete(txn.Node, txn.Block, val)
		}
	}

	if m.events {
		n := int(txn.Node)
		m.emit(obs.Event{Kind: obs.KindTxnEnd, Src: n, Dst: n,
			Block: uint64(txn.Block), Write: txn.Write}, nil)
	}
	m.noteProgress()

	m.delTxn(txn)
	for _, msg := range txn.Deferred {
		m.scheduleAt(txn.Node, 0, (*redelivery)(msg))
	}
	clear(txn.Deferred)
	txn.Deferred = txn.Deferred[:0]
	txn.ret = val
	if txn.Write && txn.RMW != nil {
		txn.ret = txn.rmwOld
	}
	m.scheduleAt(txn.Node, m.Cfg.CacheLatency, (*txnDone)(txn))
}

// ---------------------------------------------------------------------
// Messaging
// ---------------------------------------------------------------------

// Send transmits msg over the network and dispatches it on arrival.
// The machine copies msg into a record it owns, taken from the free list
// of the sender's lane (the lane a send runs on during a sharded
// parallel phase; outside one the lanes are parked), and recycles the
// record after its last dispatch. The *Msg a handler receives is that
// record, valid only during the call.
//
//dirccvet:hotpath
func (m *Machine) Send(msg Msg) {
	m.post(m.newMsg(msg.Src, &msg))
}

// post transmits r, a record of the sender's lane, as Send describes.
//
//dirccvet:hotpath
func (m *Machine) post(r *Msg) {
	if m.events {
		// The probe writes the message ID through the slot at once, so
		// the ID lands before the delivery fires, and so before the
		// record can be recycled.
		//dirccvet:allow allocguard trace-only: String formats unknown types, and the event escapes to the probe
		m.emit(obs.Event{Kind: obs.KindSend, Type: r.Type.String(),
			Src: int(r.Src), Dst: int(r.Dst), Block: uint64(r.Block),
			Req: int(r.Requester), Dir: r.ToDir}, &r.probeID)
	}
	if m.sendHook != nil {
		m.sendHook(r)
		return
	}
	if m.shard != nil && m.shard.InPhase() {
		// Parallel phase: the network's link/port bookkeeping is shared
		// across lanes, so the send is parked in the sender's mailbox
		// and replayed (ReplaySend) in the global deterministic order.
		lane := m.shard.LaneOf(int(r.Src))
		m.sendLogs[lane] = append(m.sendLogs[lane], r)
		m.shard.LogSendAt(int(r.Src))
		return
	}
	m.sendNow(r)
}

// newMsg copies msg into a record from the free list of n's lane. It
// stays out of line so that allocguard attributes its one allocation,
// on an empty list, here rather than to every sender.
//
//dirccvet:hotpath
//go:noinline
func (m *Machine) newMsg(n NodeID, msg *Msg) *Msg {
	l := &m.free[m.laneOf(n)]
	r := l.msgs
	if r == nil {
		//dirccvet:allow allocguard a lane allocates a record only while more of its messages are live than ever before
		r = new(Msg)
	} else {
		l.msgs = r.next
	}
	*r = *msg
	r.probeID, r.mach, r.next = 0, m, nil
	return r
}

// freeMsg returns r, after its last dispatch, to the free list of the
// lane that owns r.Dst, where that dispatch ran. Clearing the record
// releases its Ptrs slice.
//
//dirccvet:hotpath
func (m *Machine) freeMsg(r *Msg) {
	l := &m.free[m.laneOf(r.Dst)]
	*r = Msg{next: l.msgs}
	l.msgs = r
}

// Discard returns msg, a record the send hook received, to the free
// lists without delivering it: a hook that abandons its undelivered
// records, as the model checker does before every Reset, hands them
// back here. The caller must not touch msg afterwards.
func (m *Machine) Discard(msg *Msg) { m.freeMsg(msg) }

// SetSendHook installs (or clears, with nil) the transport interceptor
// used by the model checker. With a hook installed, messages bypass the
// network model entirely: the hook receives each sent message's record
// and becomes responsible for passing every record to Deliver exactly
// once, in whatever order it chooses to explore. Until then the hook
// owns the record and may read it.
func (m *Machine) SetSendHook(fn func(msg *Msg)) { m.sendHook = fn }

// Deliver delivers msg, a record the send hook received, as the
// network's delivery event would, and then recycles the record: the
// caller must not touch msg afterwards. For a RelHome reply it commits
// the granted write and releases the home gate right after the
// dispatch. Intercepted transport has no delivery instant to hang the
// companion event on, and right after the dispatch is where the
// sequential order puts it: nothing can observe the machine in between.
func (m *Machine) Deliver(msg *Msg) {
	m.markHomeCommit(msg)
	rel, b := msg.RelHome, msg.Block
	done := m.dispatch(msg)
	if rel {
		m.Store.CommitWrite(b)
		m.ReleaseHome(b)
	}
	if done {
		m.freeMsg(msg)
	}
}

// ReplaceBlock forces node n to replace its copy of block b, exactly
// as if the frame had been reclaimed for a conflicting miss: the
// engine's OnEvict runs (Replace_INV, writeback, unlink, ... as the
// scheme requires) and the frame is cleared. It returns false without
// side effects when n holds no stable unpinned copy of b. The model
// checker uses it to exercise replacement races without having to
// construct a conflicting address pattern.
func (m *Machine) ReplaceBlock(n NodeID, b BlockID) bool {
	m.auditLane(n)
	ln := m.Nodes[n].Cache.Lookup(b)
	if ln == nil || ln.State == cache.Invalid || ln.Pinned {
		return false
	}
	m.CtrAt(n).Replacements++
	m.proto.OnEvict(m, n, ln)
	m.Nodes[n].Cache.Evict(ln)
	return true
}

// dispatch hands msg to the engine handler its routing names, or queues
// it at its block's held gate. It reports whether the caller is done
// with the record: false when the gate queue keeps it for a later
// gateRestart.
//
//dirccvet:hotpath
func (m *Machine) dispatch(msg *Msg) bool {
	m.auditLane(msg.Dst)
	if m.events {
		// The send's emission wrote the ID into the message before the
		// delivery could fire.
		//dirccvet:allow allocguard trace-only: String formats unknown types, and the event escapes to the probe
		m.emit(obs.Event{Kind: obs.KindDeliver, Type: msg.Type.String(),
			Src: int(msg.Src), Dst: int(msg.Dst), Block: uint64(msg.Block),
			ID: msg.probeID, Dir: msg.ToDir}, nil)
	}
	if !msg.ToDir {
		m.proto.CacheMsg(m, msg)
		return true
	}
	if !msg.Gated {
		m.proto.HomeMsg(m, msg)
		return true
	}
	g := m.slot(msg.Block)
	if g.busy {
		m.CtrAt(msg.Dst).DirectoryBusy++
		if m.events {
			//dirccvet:allow allocguard trace-only: String formats unknown types, and the event escapes to the probe
			m.emit(obs.Event{Kind: obs.KindGateWait, Type: msg.Type.String(),
				Src: int(msg.Dst), Dst: int(msg.Dst), Block: uint64(msg.Block)}, nil)
		}
		g.queue = append(g.queue, msg)
		return false
	}
	g.busy = true
	m.startHome(msg)
	return true
}

// startHome marks the serialization point of a gated request — the
// home gate is held — and hands it to the engine. A gated write
// starting here opens a new invalidation wave in the trace (the probe
// bumps the wave counter when it finalizes the event).
func (m *Machine) startHome(msg *Msg) {
	if m.events {
		m.emit(obs.Event{Kind: obs.KindHomeStart, Type: msg.Type.String(),
			Src: int(msg.Dst), Dst: int(msg.Dst), Block: uint64(msg.Block),
			Req: int(msg.Requester)}, nil)
	}
	m.proto.HomeRequest(m, msg)
}

// ReleaseHome releases block b's gate and dispatches the next queued
// request, if any. Engines call it exactly once per HomeRequest.
//
//dirccvet:hotpath
func (m *Machine) ReleaseHome(b BlockID) {
	g := m.findSlot(b)
	if g == nil || !g.busy {
		//dirccvet:allow allocguard panic formatting is off the steady-state path
		panic(fmt.Sprintf("coherent: ReleaseHome(%d) without a held gate", b))
	}
	if len(g.queue) == 0 {
		g.busy = false
		return
	}
	// Pop the head and shift the rest down in place, so the queue keeps
	// its backing array and a burst behind a held gate allocates nothing
	// once the array has grown to the burst's size; the vacated last
	// slot is cleared so the queue holds no record past its hand-off.
	next := g.queue[0]
	k := copy(g.queue, g.queue[1:])
	g.queue[k] = nil
	g.queue = g.queue[:k]
	// Process the queued request as a fresh arrival (zero-delay event
	// so the current handler unwinds first).
	m.scheduleAt(m.Home(b), 0, (*gateRestart)(next))
}

// ---------------------------------------------------------------------
// Common engine helpers
// ---------------------------------------------------------------------

// DeferToTxn queues a copy of msg onto node n's outstanding read
// transaction for the same block, returning true if it did; the machine
// redelivers the copy to n's cache controller once the transaction
// completes. Engines use this for invalidations that arrive before the
// data reply they logically follow, and it is the only way they defer
// a message: msg may be the handler's own record, which is recycled
// when the handler returns, or a message the engine built. msg must be
// addressed to n.
func (m *Machine) DeferToTxn(n NodeID, msg *Msg) bool {
	txn := m.Txn(n, msg.Block)
	if txn == nil || txn.Write {
		return false
	}
	if msg.Dst != n {
		panic(fmt.Sprintf("coherent: DeferToTxn at node %d of a message addressed to %d", n, msg.Dst))
	}
	txn.Deferred = append(txn.Deferred, m.newMsg(n, msg))
	return true
}

// Serve says what a memory reply marks as it leaves the home: whether
// it flags the requester's outstanding read of the block Served (see
// Txn). ServeNone marks nothing and ServeAny marks the read whatever
// its serial; any other value, made with ServeTxn, marks it only while
// it is still the transaction with that serial.
type Serve uint64

const (
	ServeNone Serve = 0
	ServeAny  Serve = math.MaxUint64
)

// ServeTxn returns the Serve that marks only the requester's read with
// issue serial s (Txn.Serial).
func ServeTxn(s uint64) Serve { return Serve(s) }

// ReplyFromMemory is how a home answers a request from its memory
// module, once the engine has served it (the gate is held). After the
// memory access latency it sets reply.Data to the block's current
// contents, marks the requester's read as serve says, sends reply from
// the home, and then releases the block's gate, unless reply.RelHome
// leaves that to the reply's delivery. The reply travels in one message
// record, taken from the home lane's free list now and sent as it is
// then, so the hop allocates nothing. Call it from a handler running
// at the home of reply.Block.
//
//dirccvet:hotpath
func (m *Machine) ReplyFromMemory(reply Msg, serve Serve) {
	home := m.Home(reply.Block)
	r := m.newMsg(home, &reply)
	r.serve = serve
	m.scheduleAt(home, m.Cfg.MemLatency, (*memReply)(r))
}

// MarkServed flags node n's outstanding read of block b Served, as
// serve selects (see Serve): ServeAny marks it whatever its serial,
// ServeTxn(s) only while it is the transaction with serial s, and
// ServeNone marks nothing. A write is never marked. It is the one place
// Txn.Served is set: a home handler calls it when it sends the read's
// data by a path that can race an invalidation, and a memory reply
// (ReplyFromMemory) calls it on the home's lane as the reply leaves.
func (m *Machine) MarkServed(n NodeID, b BlockID, serve Serve) {
	txn := m.Txn(n, b)
	if txn == nil || txn.Write || (serve != ServeAny && txn.Serial != uint64(serve)) {
		return
	}
	txn.Served = true
}

// SerializeWrite commits a write request's value at its serialization
// point. Engines call it exactly once per WriteReq processed under the
// home gate; the matching CommitWrite happens in CompleteTxn. For an
// atomic read-modify-write the new value is computed here, from the
// block's contents in serialization order.
func (m *Machine) SerializeWrite(msg *Msg) {
	if txn := m.Txn(msg.Requester, msg.Block); txn != nil && txn.Write && txn.RMW != nil {
		txn.rmwOld = m.Store.Value(msg.Block)
		txn.Value = txn.RMW(txn.rmwOld)
		msg.Data = txn.Value
	}
	m.Store.ApplyWrite(msg.Block, msg.Data)
}

// Quiesce runs the simulation until the event queue drains and then
// asserts the quiescence contract (CheckQuiescent) over every allocated
// block on a checked machine, and only its machine-wide part (network,
// transactions, gates) on an unchecked one. It returns the first
// violation or the kernel's error. A drain that leaves work outstanding
// is a protocol deadlock; the watchdog (when attached) dumps the
// machine state before the error is returned.
func (m *Machine) Quiesce() error {
	err := m.quiesce()
	if p := m.probe; p != nil {
		if err != nil && p.Watchdog != nil {
			p.Watchdog.FireDrain(uint64(m.Now()), err.Error())
		}
		if p.Sampler != nil {
			p.Sampler.Flush(uint64(m.Now()))
		}
	}
	return err
}

// RunKernel drains the live event kernel without Quiesce's checks.
// Drivers that check the machine themselves between phases (the fuzz
// harness at its quiescence points, the model checker after every
// step) use it; the drain works on both the sequential and the sharded
// kernel.
func (m *Machine) RunKernel() error {
	err := m.runKernel()
	m.mergeLaneCounters()
	return err
}

func (m *Machine) quiesce() error {
	if err := m.RunKernel(); err != nil {
		return err
	}
	blocks := 0
	if m.Mon != nil {
		blocks = int(m.BlockOf(m.allocTop))
	}
	if err := m.CheckQuiescent(blocks); err != nil {
		return err
	}
	m.Ctr.Cycles = uint64(m.Now())
	return nil
}

// runKernel drains the live event kernel. Before a sharded run the
// store capacity is pinned (shared memory must be allocated up front)
// so lane accesses never reallocate its backing arrays.
func (m *Machine) runKernel() error {
	if m.shard != nil {
		m.Store.Freeze(int(m.BlockOf(m.allocTop)) + 1)
		return m.shard.Run()
	}
	return m.eng.Run()
}

// mergeLaneCounters folds the per-lane counter sinks into Ctr, in lane
// order, and replaces them with fresh sinks (so repeated Quiesce calls
// never double-count). No-op on sequential machines.
func (m *Machine) mergeLaneCounters() {
	for i, lc := range m.laneCtrs {
		m.Ctr.Add(lc)
		m.laneCtrs[i] = stats.NewCounters()
	}
}
