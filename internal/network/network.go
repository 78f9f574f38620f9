// Package network models a wormhole-routed interconnect at message
// granularity.
//
// The model follows the paper's Table 5: 8-bit (one byte) phits, one
// cycle of switch/wire delay per hop, and network interfaces that
// inject and eject one phit per cycle. A message of L bytes crossing H
// hops therefore has an unloaded latency of
//
//	L (injection) pipelined with H hops of head latency + L at ejection
//	≈ H·hopDelay + L cycles,
//
// plus any time spent waiting for busy resources. Three resources are
// serially reusable: the source NI's injection port, each directed link
// on the route, and the destination NI's ejection port. Each is busy
// for L cycles per message (the body streaming through), which is what
// produces the full-map protocol's "sequential invalidation" behavior
// at a hot home node — the effect the paper's tree fan-out removes.
//
// This is an approximation of flit-level wormhole switching: a blocked
// head here waits at the link rather than stalling the worm in place
// across all earlier links. The approximation preserves per-link
// bandwidth limits, pipelining, and hot-spot serialization, which are
// the properties the protocol comparison depends on.
package network

import (
	"fmt"

	"dircc/internal/sim"
	"dircc/internal/stats"
	"dircc/internal/topology"
)

// Config sets the link and interface timing parameters.
type Config struct {
	// PhitBytes is the link width in bytes; Table 5 uses 1 (8 bits).
	PhitBytes int
	// HopDelay is the switch+wire delay per hop in cycles (Table 5: 1).
	HopDelay sim.Time
	// LocalDelay is the cost of a node sending a message to itself
	// (through its own NI loopback).
	LocalDelay sim.Time
}

// DefaultConfig returns the paper's Table 5 network parameters.
func DefaultConfig() Config {
	return Config{PhitBytes: 1, HopDelay: 1, LocalDelay: 1}
}

func (c Config) validate() error {
	if c.PhitBytes < 1 {
		return fmt.Errorf("network: PhitBytes must be >= 1, got %d", c.PhitBytes)
	}
	if c.HopDelay < 1 {
		return fmt.Errorf("network: HopDelay must be >= 1, got %d", c.HopDelay)
	}
	if c.LocalDelay < 1 {
		return fmt.Errorf("network: LocalDelay must be >= 1, got %d", c.LocalDelay)
	}
	return nil
}

// Network simulates message transport over a Topology.
type Network struct {
	sched sim.NodeScheduler
	topo  topology.Topology
	cfg   Config
	nodes int

	// nextFree times for each serially reusable resource.
	linkFree   []sim.Time
	injectFree []sim.Time
	ejectFree  []sim.Time

	// routes is the precomputed per-pair route table (flattened
	// src*nodes+dst) used for the small fixed machine sizes; for larger
	// topologies routeScratch is the reusable buffer RouteTo appends
	// into. Either way Send computes no route on the heap. The engine
	// is single-threaded, so one scratch buffer per network suffices.
	routes       [][]topology.LinkID
	routeScratch []topology.LinkID

	// accounting. sent is only touched from send-processing contexts
	// (the sequential event loop, or the sharded engine's replay —
	// both single-threaded). deliveredBy is per destination node so
	// that delivery handlers, which run on the destination's lane under
	// the sharded engine and report through Delivered, never share a
	// counter across lanes; the sum is read only from quiesced
	// contexts.
	sent        uint64
	deliveredBy []uint64
	counters    *stats.Counters

	// probe, when non-nil, observes each message's transport timing:
	// injection instant, computed arrival instant, and the latency an
	// idle network would have given it. The difference is the cycles
	// spent queued behind busy links and interface ports — the
	// contention signal the observability layer samples. One nil check
	// per Send when disabled.
	probe func(start, arrive, unloaded sim.Time)
}

// routeTableMaxNodes bounds the precomputed route table to machines
// where the all-pairs table stays small (at most 64*64 routes of at
// most Diameter links); beyond that Send falls back to the reusable
// scratch buffer.
const routeTableMaxNodes = 64

// New builds a network over topo driven by sched — the sequential
// engine or the sharded engine's node-routing surface — recording
// traffic into counters (which may be shared with the machine).
func New(sched sim.NodeScheduler, topo topology.Topology, cfg Config, counters *stats.Counters) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if counters == nil {
		counters = stats.NewCounters()
	}
	n := &Network{
		sched:       sched,
		topo:        topo,
		cfg:         cfg,
		nodes:       topo.Nodes(),
		linkFree:    make([]sim.Time, len(topo.Links())),
		injectFree:  make([]sim.Time, topo.Nodes()),
		ejectFree:   make([]sim.Time, topo.Nodes()),
		deliveredBy: make([]uint64, topo.Nodes()),
		counters:    counters,
	}
	if n.nodes <= routeTableMaxNodes {
		// Precompute every route into one backing array; the table
		// entries are read-only subslices of it. Presizing with the
		// all-pairs hop sum keeps the table in a single array.
		total := 0
		for src := 0; src < n.nodes; src++ {
			for dst := 0; dst < n.nodes; dst++ {
				total += topo.Distance(topology.NodeID(src), topology.NodeID(dst))
			}
		}
		backing := make([]topology.LinkID, 0, total)
		n.routes = make([][]topology.LinkID, n.nodes*n.nodes)
		for src := 0; src < n.nodes; src++ {
			for dst := 0; dst < n.nodes; dst++ {
				start := len(backing)
				backing = topo.RouteTo(topology.NodeID(src), topology.NodeID(dst), backing)
				n.routes[src*n.nodes+dst] = backing[start:len(backing):len(backing)]
			}
		}
	} else {
		n.routeScratch = make([]topology.LinkID, 0, topo.Diameter())
	}
	return n, nil
}

// routeFor returns the route from src to dst without allocating: a
// route-table lookup on small machines, otherwise RouteTo into the
// network's scratch buffer. The returned slice is only valid until the
// next call.
//
//dirccvet:hotpath
func (n *Network) routeFor(src, dst topology.NodeID) []topology.LinkID {
	if n.routes != nil {
		return n.routes[int(src)*n.nodes+int(dst)]
	}
	n.routeScratch = n.topo.RouteTo(src, dst, n.routeScratch[:0])
	return n.routeScratch
}

// Reset returns the network to the idle state New leaves it in: every
// link and interface port free at time zero and no message sent or
// delivered. The route table, the scheduler, the counters and the
// probe stay as they are.
func (n *Network) Reset() {
	clear(n.linkFree)
	clear(n.injectFree)
	clear(n.ejectFree)
	clear(n.deliveredBy)
	n.sent = 0
}

// SetProbe installs (or, with nil, removes) the transport-timing
// observer.
func (n *Network) SetProbe(fn func(start, arrive, unloaded sim.Time)) { n.probe = fn }

// InFlight reports the number of messages sent but not yet delivered:
// those whose delivery handlers have not yet called Delivered. Call
// only from quiesced (single-threaded) contexts: it sums the per-node
// delivery counters.
func (n *Network) InFlight() uint64 {
	var delivered uint64
	for _, d := range n.deliveredBy {
		delivered += d
	}
	return n.sent - delivered
}

// Delivered records that a message Send carried to dst has arrived.
// Every delivery handler calls it when it fires; it runs on dst's lane
// and touches only dst's counter.
func (n *Network) Delivered(dst topology.NodeID) { n.deliveredBy[dst]++ }

// Sent returns the total number of messages accepted for transport.
func (n *Network) Sent() uint64 { return n.sent }

// serviceBytes returns the cycles a resource is busy streaming a
// message of the given size.
func (n *Network) serviceBytes(bytes int) sim.Time {
	phits := (bytes + n.cfg.PhitBytes - 1) / n.cfg.PhitBytes
	if phits < 1 {
		phits = 1
	}
	return sim.Time(phits)
}

// Send transports a message of the given size from src to dst and
// schedules deliver to fire on dst at the arrival instant, which it
// returns (callers scheduling companion work at delivery time — the
// home-gate release — need it). typ labels the message for per-type
// statistics. Send never blocks; all waiting happens in simulated time.
//
// The kernel queues deliver itself, so a handler the caller already
// owns (the coherence machine's message) costs Send no allocation.
// When it fires, deliver must call Delivered(dst): until then the
// message counts as in flight.
//
//dirccvet:hotpath
func (n *Network) Send(typ string, src, dst topology.NodeID, bytes int, deliver sim.Handler) sim.Time {
	if deliver == nil {
		panic("network: Send with nil deliver")
	}
	if bytes < 1 {
		//dirccvet:allow allocguard panic formatting is off the steady-state path
		panic(fmt.Sprintf("network: message %q has non-positive size %d", typ, bytes))
	}
	n.sent++
	svc := n.serviceBytes(bytes)
	now := n.sched.Now()
	route := n.routeFor(src, dst)
	//dirccvet:allow allocguard CountMsg lazily builds its per-type map once, not per message
	n.counters.CountMsg(typ, bytes, len(route))

	if len(route) == 0 {
		// Local delivery still pays NI loopback latency and occupancy.
		start := maxTime(now, n.injectFree[src])
		n.injectFree[src] = start + svc
		arrive := start + n.cfg.LocalDelay + svc
		if n.probe != nil {
			n.probe(now, arrive, n.cfg.LocalDelay+svc)
		}
		n.sched.AtNode(int(dst), arrive, deliver)
		return arrive
	}

	// Head departs the source NI once the injection port frees up.
	head := maxTime(now, n.injectFree[src])
	n.injectFree[src] = head + svc

	// The head advances one hop per HopDelay, waiting at any link whose
	// previous occupant's tail has not yet passed. Each link is then
	// busy for svc cycles (the body streaming through behind the head).
	for _, lid := range route {
		head = maxTime(head+n.cfg.HopDelay, n.linkFree[lid])
		n.linkFree[lid] = head + svc
	}

	// Ejection at the destination NI: the tail arrives svc cycles after
	// the head starts draining, and the ejection port is busy meanwhile.
	ejectStart := maxTime(head, n.ejectFree[dst])
	n.ejectFree[dst] = ejectStart + svc
	arrive := ejectStart + svc
	if n.probe != nil {
		n.probe(now, arrive, sim.Time(len(route))*n.cfg.HopDelay+svc)
	}
	n.sched.AtNode(int(dst), arrive, deliver)
	return arrive
}

// UnloadedLatency returns the latency in cycles of a message of the
// given size between src and dst on an idle network. Useful for
// analytic sanity checks and tests.
func (n *Network) UnloadedLatency(src, dst topology.NodeID, bytes int) sim.Time {
	svc := n.serviceBytes(bytes)
	if src == dst {
		return n.cfg.LocalDelay + svc
	}
	hops := sim.Time(n.topo.Distance(src, dst))
	return hops*n.cfg.HopDelay + svc
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
