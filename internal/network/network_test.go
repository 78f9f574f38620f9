package network

import (
	"testing"
	"testing/quick"

	"dircc/internal/sim"
	"dircc/internal/stats"
	"dircc/internal/topology"
)

func newNet(t *testing.T, dim int) (*sim.Engine, *Network, *stats.Counters) {
	t.Helper()
	eng := sim.NewEngine()
	ctr := stats.NewCounters()
	n, err := New(eng, topology.MustHypercube(dim), DefaultConfig(), ctr)
	if err != nil {
		t.Fatal(err)
	}
	return eng, n, ctr
}

// arrival is the delivery handler a test message needs: it reports the
// arrival at dst to n, then runs fn.
func arrival(n *Network, dst topology.NodeID, fn func()) sim.Handler {
	return sim.Func(func() { n.Delivered(dst); fn() })
}

// counter is a delivery handler that allocates nothing when it fires:
// it reports its message's arrival at dst and counts it.
type counter struct {
	n     *Network
	dst   topology.NodeID
	fired int
}

func (c *counter) Fire() {
	c.n.Delivered(c.dst)
	c.fired++
}

// TestSendZeroAllocs checks that Send queues the caller's handler as it
// is: sending and delivering messages whose handler already exists
// allocates nothing.
func TestSendZeroAllocs(t *testing.T) {
	eng, n, _ := newNet(t, 5)
	h := &counter{n: n, dst: 9}
	send := func() {
		for i := 0; i < 32; i++ {
			n.Send("Data", topology.NodeID(i), h.dst, 8, h)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send() // grow the event queue and count the first "Data" message
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("sending and delivering 32 messages allocates %.1f times, want 0", allocs)
	}
	if h.fired != 32*102 || n.InFlight() != 0 {
		t.Fatalf("delivered %d messages, %d in flight; want %d and 0", h.fired, n.InFlight(), 32*102)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	topo := topology.MustHypercube(2)
	bad := []Config{
		{PhitBytes: 0, HopDelay: 1, LocalDelay: 1},
		{PhitBytes: 1, HopDelay: 0, LocalDelay: 1},
		{PhitBytes: 1, HopDelay: 1, LocalDelay: 0},
	}
	for _, cfg := range bad {
		if _, err := New(eng, topo, cfg, nil); err == nil {
			t.Errorf("config %+v did not error", cfg)
		}
	}
	if _, err := New(eng, topo, DefaultConfig(), nil); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestUnloadedLatencySingleMessage(t *testing.T) {
	eng, n, _ := newNet(t, 3)
	// 0 -> 7 is 3 hops. 8-byte message: 3*1 + 8 = 11 cycles.
	var arrived sim.Time
	n.Send("Data", 0, 7, 8, arrival(n, 7, func() { arrived = eng.Now() }))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := n.UnloadedLatency(0, 7, 8)
	if arrived != want {
		t.Fatalf("arrival at %d, want %d", arrived, want)
	}
	if want != 11 {
		t.Fatalf("UnloadedLatency = %d, want 11", want)
	}
}

func TestLocalDelivery(t *testing.T) {
	eng, n, _ := newNet(t, 3)
	var arrived sim.Time
	n.Send("Data", 2, 2, 8, arrival(n, 2, func() { arrived = eng.Now() }))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// localDelay 1 + 8 bytes = 9 cycles.
	if arrived != 9 {
		t.Fatalf("local delivery at %d, want 9", arrived)
	}
}

func TestInjectionSerialization(t *testing.T) {
	eng, n, _ := newNet(t, 3)
	// Node 0 sends two 8-byte messages to distinct neighbors at t=0.
	// The second's head cannot leave until the first's 8 bytes drained
	// through the shared injection port.
	var t1, t2 sim.Time
	n.Send("Inv", 0, 1, 8, arrival(n, 1, func() { t1 = eng.Now() }))
	n.Send("Inv", 0, 2, 8, arrival(n, 2, func() { t2 = eng.Now() }))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if t1 != 9 { // 1 hop + 8 bytes
		t.Fatalf("first arrival %d, want 9", t1)
	}
	if t2 != 17 { // injection starts at 8, +1 hop +8 bytes
		t.Fatalf("second arrival %d, want 17 (injection port serialization)", t2)
	}
}

func TestEjectionSerialization(t *testing.T) {
	eng, n, _ := newNet(t, 3)
	// Two different nodes send to node 7 simultaneously; the second
	// message to arrive waits for the ejection port.
	var times []sim.Time
	n.Send("Ack", 6, 7, 8, arrival(n, 7, func() { times = append(times, eng.Now()) })) // 1 hop
	n.Send("Ack", 5, 7, 8, arrival(n, 7, func() { times = append(times, eng.Now()) })) // 1 hop, different link
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatal("lost a message")
	}
	// First: head at 1, eject 1..9. Second head also at 1, but ejection
	// port busy until 9 -> drains 9..17.
	if times[0] != 9 || times[1] != 17 {
		t.Fatalf("arrivals %v, want [9 17]", times)
	}
}

func TestLinkContention(t *testing.T) {
	eng, n, _ := newNet(t, 1) // two nodes, one link each way
	var times []sim.Time
	// Two messages from 0 to 1 share the injection port AND the link.
	n.Send("A", 0, 1, 4, arrival(n, 1, func() { times = append(times, eng.Now()) }))
	n.Send("B", 0, 1, 4, arrival(n, 1, func() { times = append(times, eng.Now()) }))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// First: inject 0..4, head hop at 1, link busy 1..5, eject done 5+... head=1, eject start 1, arrive 5.
	// Second: inject 4..8, head at 5 (hop delay from 4) but link free at 5 -> head 5, arrive 9.
	if times[0] != 5 || times[1] != 9 {
		t.Fatalf("arrivals %v, want [5 9]", times)
	}
}

func TestMessageConservation(t *testing.T) {
	eng, n, ctr := newNet(t, 4)
	const total = 500
	delivered := 0
	for i := 0; i < total; i++ {
		src := topology.NodeID(i % 16)
		dst := topology.NodeID((i * 7) % 16)
		n.Send("X", src, dst, 1+i%16, arrival(n, dst, func() { delivered++ }))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != total {
		t.Fatalf("delivered %d, want %d", delivered, total)
	}
	if n.InFlight() != 0 {
		t.Fatalf("InFlight() = %d after drain", n.InFlight())
	}
	if ctr.Messages != total {
		t.Fatalf("counted %d messages, want %d", ctr.Messages, total)
	}
}

func TestSendPanicsOnBadArgs(t *testing.T) {
	eng, n, _ := newNet(t, 2)
	_ = eng
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil deliver did not panic")
			}
		}()
		n.Send("X", 0, 1, 8, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero size did not panic")
			}
		}()
		n.Send("X", 0, 1, 0, arrival(n, 1, func() {}))
	}()
}

// Property: every message arrives no earlier than its unloaded latency,
// and all messages are delivered exactly once regardless of load.
func TestQuickLatencyLowerBound(t *testing.T) {
	f := func(seeds []uint16) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 300 {
			seeds = seeds[:300]
		}
		eng := sim.NewEngine()
		topo := topology.MustHypercube(4)
		n, err := New(eng, topo, DefaultConfig(), nil)
		if err != nil {
			return false
		}
		ok := true
		delivered := 0
		for _, s := range seeds {
			src := topology.NodeID(int(s) % 16)
			dst := topology.NodeID(int(s>>4) % 16)
			size := 1 + int(s>>8)%32
			sentAt := eng.Now()
			lower := n.UnloadedLatency(src, dst, size)
			n.Send("X", src, dst, size, arrival(n, dst, func() {
				delivered++
				if eng.Now()-sentAt < lower {
					ok = false
				}
			}))
		}
		if err := eng.Run(); err != nil {
			return false
		}
		return ok && delivered == len(seeds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: bandwidth limit — N back-to-back messages of B bytes
// between the same pair take at least N*B cycles end to end.
func TestQuickBandwidthLimit(t *testing.T) {
	f := func(nMsgs, szRaw uint8) bool {
		nm := int(nMsgs%20) + 1
		sz := int(szRaw%16) + 1
		eng := sim.NewEngine()
		n, err := New(eng, topology.MustHypercube(3), DefaultConfig(), nil)
		if err != nil {
			return false
		}
		var last sim.Time
		for i := 0; i < nm; i++ {
			n.Send("X", 0, 5, sz, arrival(n, 5, func() { last = eng.Now() }))
		}
		if err := eng.Run(); err != nil {
			return false
		}
		return last >= sim.Time(nm*sz)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWidePhits(t *testing.T) {
	eng := sim.NewEngine()
	cfg := Config{PhitBytes: 8, HopDelay: 1, LocalDelay: 1}
	n, err := New(eng, topology.MustHypercube(3), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 8-byte message over an 8-byte-wide link: 1 phit.
	if got := n.UnloadedLatency(0, 7, 8); got != 3+1 {
		t.Fatalf("UnloadedLatency = %d, want 4", got)
	}
	// 9 bytes round up to 2 phits.
	if got := n.UnloadedLatency(0, 7, 9); got != 3+2 {
		t.Fatalf("UnloadedLatency = %d, want 5", got)
	}
}

func TestBusSerializesEverything(t *testing.T) {
	eng := sim.NewEngine()
	bus, err := topology.NewBus(4)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(eng, bus, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var times []sim.Time
	n.Send("A", 0, 1, 8, arrival(n, 1, func() { times = append(times, eng.Now()) }))
	n.Send("B", 2, 3, 8, arrival(n, 3, func() { times = append(times, eng.Now()) }))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[1]-times[0] < 8 {
		t.Fatalf("bus did not serialize distinct pairs: %v", times)
	}
}

// Property: deliveries between any (src,dst) pair preserve send order.
// The coherence protocols' race analysis (data reply before racing
// invalidation, eviction writeback before recall) depends on this.
func TestQuickPerPairFIFO(t *testing.T) {
	f := func(seedsRaw []uint16) bool {
		seeds := seedsRaw
		if len(seeds) > 400 {
			seeds = seeds[:400]
		}
		eng := sim.NewEngine()
		topo := topology.MustHypercube(3)
		n, err := New(eng, topo, DefaultConfig(), nil)
		if err != nil {
			return false
		}
		type pair struct{ s, d topology.NodeID }
		sent := map[pair]int{}
		got := map[pair]int{}
		ok := true
		step := 0
		var sendSome func()
		sendSome = func() {
			// Interleave sends over time so messages overlap in flight.
			for k := 0; k < 10 && step < len(seeds); k++ {
				v := seeds[step]
				step++
				src := topology.NodeID(int(v) % 8)
				dst := topology.NodeID(int(v>>3) % 8)
				pr := pair{src, dst}
				seq := sent[pr]
				sent[pr]++
				size := 1 + int(v>>8)%24
				n.Send("X", src, dst, size, arrival(n, dst, func() {
					if got[pr] != seq {
						ok = false
					}
					got[pr]++
				}))
			}
			if step < len(seeds) {
				eng.Schedule(sim.Time(1+int(seeds[step%len(seeds)])%7), sim.Func(sendSome))
			}
		}
		sendSome()
		if err := eng.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReset(t *testing.T) {
	eng, n, _ := newNet(t, 3)
	n.Send("Inv", 0, 1, 8, arrival(n, 1, func() {}))
	n.Send("Inv", 0, 7, 8, arrival(n, 7, func() {}))
	if _, err := eng.RunUntil(9); err != nil {
		t.Fatal(err)
	}
	eng.Reset()
	n.Reset()
	if n.Sent() != 0 || n.InFlight() != 0 {
		t.Fatalf("after Reset: sent %d, in flight %d", n.Sent(), n.InFlight())
	}
	// The ports and links are free again: the first send arrives as on
	// an idle network.
	var arrived sim.Time
	n.Send("Inv", 0, 1, 8, arrival(n, 1, func() { arrived = eng.Now() }))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if arrived != 9 || n.InFlight() != 0 {
		t.Fatalf("arrival %d, want 9; in flight %d", arrived, n.InFlight())
	}
}
