package coherent

import (
	"slices"
	"testing"
)

// The machine owns every message record: Send copies the caller's value
// into a record from a free list, and the record goes back to a list
// after its last dispatch. These tests pin the life cycle: a round trip
// allocates nothing but its transaction once the list is warm, and a
// record that outlives its first dispatch — queued at a held gate,
// deferred onto a transaction — or a RelHome reply's gate release reads
// what was sent, not a recycled record.

// recorder is the fake engine keeping a copy of every message its
// handlers receive. deferInv makes CacheMsg defer invalidations onto a
// pending read, counting the deferrals; sendOnReply makes a write
// reply's handler send a message at once.
type recorder struct {
	*fakeEngine
	home, cache []Msg
	deferInv    bool
	deferred    int
	sendOnReply bool
}

func (r *recorder) HomeRequest(m *Machine, msg *Msg) {
	r.home = append(r.home, *msg)
	r.fakeEngine.HomeRequest(m, msg)
}

func (r *recorder) CacheMsg(m *Machine, msg *Msg) {
	if r.deferInv && msg.Type == MsgInv && m.DeferToTxn(msg.Dst, msg) {
		r.deferred++
		return
	}
	r.cache = append(r.cache, *msg)
	if r.sendOnReply && msg.Type == MsgWriteReply {
		m.Send(Msg{Type: MsgInvAck, Src: msg.Dst, Dst: m.Home(msg.Block), Block: msg.Block,
			ToDir: true, Aux: NoNode, Data: 99})
	}
	r.fakeEngine.CacheMsg(m, msg)
}

func newRecorder(t *testing.T, procs int) (*Machine, *recorder) {
	t.Helper()
	r := &recorder{fakeEngine: newFake()}
	m, err := NewMachine(DefaultConfig(procs), r)
	if err != nil {
		t.Fatal(err)
	}
	return m, r
}

// TestWriteMissRoundTripAllocs: a write miss on the fake engine is a
// WriteReq to the home and a WriteReply back. Once the free list holds
// two records, the round trip allocates one object, the transaction.
// Two nodes take turns, so every write is a miss. With one-line caches
// every miss reuses the frame; with the default 2048-line cache every
// miss takes a fresh frame, because the invalidated one has left the
// index, and frames come in chunks, so those misses allocate no Line
// of their own either.
func TestWriteMissRoundTripAllocs(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cacheLines int
	}{
		{"one-line cache", 1},
		{"default cache", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			if tc.cacheLines != 0 {
				cfg.CacheBytes = tc.cacheLines * cfg.BlockBytes
			}
			cfg.CacheSets = 1
			m, err := NewMachine(cfg, newFake())
			if err != nil {
				t.Fatal(err)
			}
			addr := m.Alloc(8)
			done := func(uint64) {}
			turn := 0
			allocs := testing.AllocsPerRun(200, func() {
				n := NodeID(1 + turn%2)
				turn++
				m.Access(n, addr, true, uint64(turn), done)
				if err := m.RunKernel(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 1 {
				t.Fatalf("a write-miss round trip allocates %.1f objects, want 1 (the Txn)", allocs)
			}
			if m.Ctr.WriteMisses != 201 || m.Net.Sent() != 402 {
				t.Fatalf("%d write misses, %d messages; want 201 and 402", m.Ctr.WriteMisses, m.Net.Sent())
			}
		})
	}
}

// TestQueuedRequestIntact: three writers reach the home of one block at
// once. The first takes the gate and the others wait in its queue while
// the replies reuse recycled records; each queued request must reach
// HomeRequest as it was sent.
func TestQueuedRequestIntact(t *testing.T) {
	m, r := newRecorder(t, 4)
	addr := m.Alloc(8)
	b := m.BlockOf(addr)
	for n := NodeID(1); n < 4; n++ {
		m.Access(n, addr, true, 10+uint64(n), func(uint64) {})
	}
	if err := m.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if m.Ctr.DirectoryBusy != 2 {
		t.Fatalf("%d requests waited at the gate, want 2", m.Ctr.DirectoryBusy)
	}
	var from []NodeID
	for _, msg := range r.home {
		n := msg.Requester
		want := Msg{Type: MsgWriteReq, Src: n, Dst: m.Home(b), Block: b, Requester: n,
			Data: 10 + uint64(n), HasData: true, ToDir: true, Gated: true, Aux: NoNode}
		if msg.Canon() != want.Canon() {
			t.Errorf("home got %s, want %s", msg.Canon(), want.Canon())
		}
		from = append(from, n)
	}
	slices.Sort(from)
	if !slices.Equal(from, []NodeID{1, 2, 3}) {
		t.Fatalf("home served requests from %v, want one from each of 1, 2, 3", from)
	}
}

// TestDeferredMsgIntact: an invalidation reaches a node whose read is
// still pending, so the engine defers it onto the transaction. The
// machine redelivers it after the install, as sent, although the
// delivered record was recycled and reused meanwhile.
func TestDeferredMsgIntact(t *testing.T) {
	m, r := newRecorder(t, 4)
	r.deferInv = true
	addr := m.Alloc(8)
	b := m.BlockOf(addr)
	m.Access(2, addr, false, 0, func(uint64) {})
	inv := Msg{Type: MsgInv, Src: 3, Dst: 2, Block: b, Requester: 3, Aux: 1,
		Ptrs: []NodeID{0, 3}, AckTo: 3, SibAck: true, Seq: 77}
	m.Send(inv)
	if err := m.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if r.deferred != 1 {
		t.Fatalf("%d invalidations deferred, want 1: the Inv must overtake the data reply", r.deferred)
	}
	var got []string
	for _, msg := range r.cache {
		if msg.Type == MsgInv {
			got = append(got, msg.Canon())
		}
	}
	if len(got) != 1 || got[0] != inv.Canon() {
		t.Fatalf("redelivered %q, want [%q]", got, inv.Canon())
	}
}

// TestRelHomeCompanionOwnsBlock: a RelHome write reply's handler sends
// a message at once. The companion event that commits the write and
// releases the gate fires after the delivery, when the reply's record is
// back on the free list; it must still commit and release the reply's
// block, and the next writer queued at the gate must get it.
func TestRelHomeCompanionOwnsBlock(t *testing.T) {
	m, r := newRecorder(t, 4)
	r.relHome = true
	r.sendOnReply = true
	addr := m.Alloc(8 * 8)
	b := m.BlockOf(addr + 5*8) // not block 0, which a cleared record names
	for n := NodeID(1); n < 3; n++ {
		m.Access(n, addr+5*8, true, uint64(n), func(uint64) {})
	}
	if err := m.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if m.HomeGateBusy(b) {
		t.Fatal("the gate is still held")
	}
	if _, busy := m.Store.WriteInFlight(b); busy {
		t.Fatal("the last write was never committed")
	}
	if len(r.home) != 2 {
		t.Fatalf("home served %d writes, want 2", len(r.home))
	}
}
