package coherent

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dircc/internal/cache"
	"dircc/internal/obs"
	"dircc/internal/sim"
	"dircc/internal/topology"
)

// fakeEngine is a minimal protocol used to unit-test the machine
// scaffolding: every miss is served by the home with a two-message
// exchange, and the home invalidates or demotes the other copies
// instantly, touching their caches directly. breakSWMR turns that off,
// so monitor and quiescence tests can provoke violations.
type fakeEngine struct {
	// breakSWMR leaves other copies valid on writes and an exclusive
	// copy exclusive on reads.
	breakSWMR bool
	// relHome makes write replies release the home gate themselves
	// (Msg.RelHome) instead of the writer's handler releasing it.
	relHome     bool
	evicted     []BlockID
	homeReqs    int
	gatedBlocks map[BlockID]bool
}

func newFake() *fakeEngine { return &fakeEngine{gatedBlocks: map[BlockID]bool{}} }

func (f *fakeEngine) Name() string { return "fake" }

func (f *fakeEngine) StartMiss(m *Machine, txn *Txn) {
	typ := MsgReadReq
	if txn.Write {
		typ = MsgWriteReq
	}
	m.Send(Msg{
		Type: typ, Src: txn.Node, Dst: m.Home(txn.Block), Block: txn.Block,
		Requester: txn.Node, Data: txn.Value, HasData: txn.Write,
		ToDir: true, Gated: true, Aux: NoNode,
	})
}

func (f *fakeEngine) HomeRequest(m *Machine, msg *Msg) {
	f.homeReqs++
	f.gatedBlocks[msg.Block] = true
	b := msg.Block
	if msg.Type == MsgWriteReq {
		m.SerializeWrite(msg)
		if !f.breakSWMR {
			// Invalidate every other copy instantaneously (test fake).
			for _, node := range m.Nodes {
				if node.ID != msg.Requester {
					node.Cache.Invalidate(b)
				}
			}
		}
		m.Send(Msg{Type: MsgWriteReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
			Requester: msg.Requester, HasData: true, Aux: NoNode, RelHome: f.relHome})
		return
	}
	if !f.breakSWMR {
		// Demote an exclusive copy instantaneously (test fake).
		for _, node := range m.Nodes {
			if ln := node.Cache.Lookup(b); ln != nil && ln.State == cache.Exclusive {
				ln.State = cache.Valid
			}
		}
	}
	m.ReplyFromMemory(Msg{Type: MsgDataReply, Src: m.Home(b), Dst: msg.Requester, Block: b,
		Requester: msg.Requester, HasData: true, Aux: NoNode}, ServeNone)
}

func (f *fakeEngine) HomeMsg(m *Machine, msg *Msg) {}

func (f *fakeEngine) CacheMsg(m *Machine, msg *Msg) {
	txn := m.Txn(msg.Dst, msg.Block)
	if txn == nil {
		return
	}
	switch msg.Type {
	case MsgDataReply:
		m.CompleteTxn(txn, cache.Valid, msg.Data, nil)
	case MsgWriteReply:
		m.CompleteTxn(txn, cache.Exclusive, txn.Value, nil)
		if !msg.RelHome {
			m.ReleaseHome(msg.Block)
		}
	}
}

func (f *fakeEngine) OnEvict(m *Machine, n NodeID, ln *cache.Line) {
	f.evicted = append(f.evicted, ln.Block)
}

func (f *fakeEngine) DirectoryBits(cfg Config, blocksPerNode int) int64 { return 0 }

func newTestMachine(t *testing.T, procs int, check bool) (*Machine, *fakeEngine) {
	t.Helper()
	cfg := DefaultConfig(procs)
	cfg.Check = check
	eng := newFake()
	m, err := NewMachine(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	return m, eng
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Procs = 0 },
		func(c *Config) { c.BlockBytes = 0 },
		func(c *Config) { c.CacheBytes = 4 },
		func(c *Config) { c.CacheSets = 3 },
		func(c *Config) { c.MemLatency = 0 },
		func(c *Config) { c.CacheLatency = 0 },
		func(c *Config) { c.HeaderBytes = 0 },
		func(c *Config) { c.PtrBytes = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(8)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	cfg := DefaultConfig(8)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	if cfg.CacheLines() != 2048 || cfg.CacheAssoc() != 2048 {
		t.Fatalf("Table 5 geometry wrong: %d lines, %d assoc", cfg.CacheLines(), cfg.CacheAssoc())
	}
}

// PointerBits is ⌈log2 Procs⌉, but never 0: even a 1-node machine
// spends a bit per directory pointer in the size formulas.
func TestPointerBits(t *testing.T) {
	for procs, want := range map[int]int64{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 32: 5, 33: 6, 64: 6} {
		if got := DefaultConfig(procs).PointerBits(); got != want {
			t.Errorf("PointerBits at P=%d = %d, want %d", procs, got, want)
		}
	}
}

func TestNewMachineRejectsBadInput(t *testing.T) {
	if _, err := NewMachine(DefaultConfig(0), newFake()); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := NewMachine(DefaultConfig(4), nil); err == nil {
		t.Error("nil engine accepted")
	}
}

// TestShardedRefusals pins what the parallel kernel refuses: at more
// than one shard, NewShardedMachineOn returns an error for a checked
// run and for memory-resident locks, and AttachProbe panics. At one
// shard or fewer the same machine is the sequential kernel and accepts
// all three.
func TestShardedRefusals(t *testing.T) {
	topo, err := topology.HypercubeForNodes(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"Check", func(c *Config) { c.Check = true }},
		{"MemLocks", func(c *Config) { c.MemLocks = true }},
		{"AttachProbe", nil},
	} {
		for _, shards := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				cfg := DefaultConfig(4)
				if tc.set != nil {
					tc.set(&cfg)
				}
				m, err := NewShardedMachineOn(cfg, newFake(), topo, shards)
				if tc.set != nil {
					if refused := err != nil; refused != (shards > 1) {
						t.Fatalf("error %v, want one only above one shard", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				defer func() {
					if panicked := recover() != nil; panicked != (shards > 1) {
						t.Fatalf("AttachProbe panicked: %v, want a panic only above one shard", panicked)
					}
				}()
				m.AttachProbe(&obs.Probe{Trace: obs.NewTrace()})
			})
		}
	}
}

func TestHomeInterleaving(t *testing.T) {
	m, _ := newTestMachine(t, 8, false)
	for b := BlockID(0); b < 64; b++ {
		if got, want := m.Home(b), NodeID(uint64(b)%8); got != want {
			t.Fatalf("Home(%d) = %d, want %d", b, got, want)
		}
	}
}

func TestAllocAlignment(t *testing.T) {
	m, _ := newTestMachine(t, 4, false)
	a := m.Alloc(3) // rounds up to one block
	b := m.Alloc(8)
	if a == b || b-a != 8 {
		t.Fatalf("allocation not block-aligned: %d %d", a, b)
	}
	if m.BlockOf(a) == m.BlockOf(b) {
		t.Fatal("distinct allocations share a block")
	}
}

func TestMsgBytes(t *testing.T) {
	cfg := DefaultConfig(4)
	ctrl := &Msg{Type: MsgInv}
	if got := ctrl.Bytes(cfg); got != cfg.HeaderBytes {
		t.Fatalf("control message %d bytes, want %d", got, cfg.HeaderBytes)
	}
	data := &Msg{Type: MsgDataReply, HasData: true}
	if got := data.Bytes(cfg); got != cfg.HeaderBytes+cfg.BlockBytes {
		t.Fatalf("data message %d bytes", got)
	}
	handoff := &Msg{Type: MsgDataReply, HasData: true, Ptrs: PtrsOf(1, 2)}
	if got := handoff.Bytes(cfg); got != cfg.HeaderBytes+cfg.BlockBytes+2*cfg.PtrBytes {
		t.Fatalf("handoff message %d bytes", got)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for typ := MsgReadReq; typ <= MsgUpdate; typ++ {
		if s := typ.String(); strings.HasPrefix(s, "MsgType(") {
			t.Errorf("message type %d has no name", typ)
		}
	}
	if !strings.HasPrefix(MsgType(200).String(), "MsgType(") {
		t.Error("unknown type should fall back")
	}
}

func TestAccessHitAndMiss(t *testing.T) {
	m, _ := newTestMachine(t, 4, true)
	addr := m.Alloc(8)
	var got uint64
	done := false
	m.Access(1, addr, true, 77, func(uint64) {
		// Write completed; read back (hit on exclusive).
		m.Access(1, addr, false, 0, func(v uint64) { got = v; done = true })
	})
	if err := m.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if !done || got != 77 {
		t.Fatalf("read back %d (done=%v), want 77", got, done)
	}
	if m.Ctr.WriteMisses != 1 || m.Ctr.ReadHits != 1 {
		t.Fatalf("counters wrong: %+v", m.Ctr)
	}
}

func TestDoubleAccessPanics(t *testing.T) {
	m, _ := newTestMachine(t, 4, false)
	addr := m.Alloc(8)
	m.Access(0, addr, false, 0, func(uint64) {})
	defer func() {
		if recover() == nil {
			t.Error("second outstanding access did not panic")
		}
	}()
	m.Access(0, addr, false, 0, func(uint64) {})
}

func TestGateSerializesRequests(t *testing.T) {
	m, eng := newTestMachine(t, 4, false)
	addr := m.Alloc(8)
	b := m.BlockOf(addr)
	// Three reads from different nodes race to the home; the gate must
	// serialize HomeRequest calls and drain the queue.
	finished := 0
	for n := NodeID(0); n < 3; n++ {
		m.Access(n, addr, false, 0, func(uint64) { finished++ })
	}
	if err := m.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if finished != 3 || eng.homeReqs != 3 {
		t.Fatalf("finished=%d homeReqs=%d", finished, eng.homeReqs)
	}
	if slices.Contains(m.heldGates(), b) {
		t.Fatal("gate leaked")
	}
	if m.Ctr.DirectoryBusy == 0 {
		t.Fatal("expected queued requests to be counted")
	}
}

func TestReleaseHomeWithoutGatePanics(t *testing.T) {
	m, _ := newTestMachine(t, 2, false)
	defer func() {
		if recover() == nil {
			t.Error("ReleaseHome without held gate did not panic")
		}
	}()
	m.ReleaseHome(5)
}

func TestEvictionCallback(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.CacheBytes = 2 * cfg.BlockBytes // two lines
	eng := newFake()
	m, err := NewMachine(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	base := m.Alloc(4 * 8)
	var step func(i int)
	step = func(i int) {
		if i == 4 {
			return
		}
		m.Access(0, base+uint64(i*8), false, 0, func(uint64) { step(i + 1) })
	}
	step(0)
	if err := m.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if len(eng.evicted) != 2 || m.Ctr.Replacements != 2 {
		t.Fatalf("evictions = %v (replacements %d), want 2", eng.evicted, m.Ctr.Replacements)
	}
}

func TestMonitorCatchesSWMRViolation(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Check = true
	eng := newFake()
	eng.breakSWMR = true
	m, err := NewMachine(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	// Node 1 reads, then node 0 writes without invalidating node 1.
	m.Access(1, addr, false, 0, func(uint64) {
		m.Access(0, addr, true, 9, func(uint64) {})
	})
	err = m.Quiesce()
	if err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("monitor missed the SWMR violation: %v", err)
	}
}

// TestQuiesceCatchesExclusiveBesideValid: node 0 writes, then node 1
// reads from memory while node 0 keeps its exclusive copy. Every value
// read is current, so the monitor sees nothing; Quiesce must report the
// SWMR violation the state holds.
func TestQuiesceCatchesExclusiveBesideValid(t *testing.T) {
	m, eng := newTestMachine(t, 4, true)
	eng.breakSWMR = true
	addr := m.Alloc(8)
	m.Access(0, addr, true, 9, func(uint64) {
		m.Access(1, addr, false, 0, func(uint64) {})
	})
	err := m.Quiesce()
	if err == nil || !strings.HasPrefix(err.Error(), "swmr:") {
		t.Fatalf("Quiesce = %v, want an swmr violation", err)
	}
}

func TestStoreWriteLifecycle(t *testing.T) {
	s := NewStore()
	if s.Value(7) != 0 {
		t.Fatal("uninitialized block should read 0")
	}
	s.ApplyWrite(7, 100)
	if s.Value(7) != 100 {
		t.Fatal("ApplyWrite did not commit the value")
	}
	if old, busy := s.WriteInFlight(7); !busy || old != 0 {
		t.Fatalf("WriteInFlight = %d,%v", old, busy)
	}
	s.CommitWrite(7)
	if _, busy := s.WriteInFlight(7); busy {
		t.Fatal("CommitWrite did not clear the in-flight state")
	}
}

func TestStoreDoubleApplyPanics(t *testing.T) {
	s := NewStore()
	s.ApplyWrite(1, 5)
	defer func() {
		if recover() == nil {
			t.Error("overlapping writes did not panic")
		}
	}()
	s.ApplyWrite(1, 6)
}

func TestStoreCommitWithoutApplyPanics(t *testing.T) {
	s := NewStore()
	defer func() {
		if recover() == nil {
			t.Error("CommitWrite without ApplyWrite did not panic")
		}
	}()
	s.CommitWrite(3)
}

// TestStoreOwnerWriteOrdering and TestStoreWritebackOrdering check the
// two uses of Store.OwnerValue: an owner's write hit, and its dirty
// data arriving home.
func TestStoreOwnerWriteOrdering(t *testing.T) { checkOwnerValueOrdering(t, 2, 11, 12) }

func TestStoreWritebackOrdering(t *testing.T) { checkOwnerValueOrdering(t, 3, 5, 6) }

// checkOwnerValueOrdering checks that an owner's value with no write in
// flight becomes the committed value, and that one racing a serialized
// write is ordered before it, refreshing only the pre-write image.
func checkOwnerValueOrdering(t *testing.T, b BlockID, before, racer uint64) {
	t.Helper()
	s := NewStore()
	s.OwnerValue(b, before)
	if s.Value(b) != before {
		t.Fatalf("value = %d, want %d", s.Value(b), before)
	}
	s.ApplyWrite(b, 22)
	s.OwnerValue(b, racer)
	if s.Value(b) != 22 {
		t.Fatalf("overwrote a serialized write: value = %d, want 22", s.Value(b))
	}
	if old, _ := s.WriteInFlight(b); old != racer {
		t.Fatalf("pre-write image = %d, want %d", old, racer)
	}
	s.CommitWrite(b)
}

// TestMarkServed pins what each Serve marks: ServeTxn(s) only the read
// with serial s, ServeAny a read whatever its serial, ServeNone nothing,
// and none of them a write.
func TestMarkServed(t *testing.T) {
	m, _ := newTestMachine(t, 4, false)
	addr := m.Alloc(8)
	b := m.BlockOf(addr)
	done := func(uint64) {}
	m.Access(1, addr, false, 0, done)
	m.Access(2, addr, false, 0, done)
	m.Access(3, addr, true, 7, done)
	read1, read2, write := m.Txn(1, b), m.Txn(2, b), m.Txn(3, b)

	m.MarkServed(2, b, ServeNone)
	m.MarkServed(2, b, ServeTxn(read2.Serial+1))
	if read2.Served {
		t.Fatal("ServeNone or another serial marked the read")
	}
	m.MarkServed(2, b, ServeTxn(read2.Serial))
	if !read2.Served {
		t.Fatal("ServeTxn of the read's own serial did not mark it")
	}
	m.MarkServed(1, b, ServeAny)
	if !read1.Served {
		t.Fatal("ServeAny did not mark the read")
	}
	m.MarkServed(3, b, ServeTxn(write.Serial))
	m.MarkServed(3, b, ServeAny)
	if write.Served {
		t.Fatal("a write was marked served")
	}
	if err := m.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

func TestDeferToTxn(t *testing.T) {
	m, _ := newTestMachine(t, 4, false)
	addr := m.Alloc(8)
	b := m.BlockOf(addr)
	m.Access(2, addr, false, 0, func(uint64) {})
	msg := &Msg{Type: MsgInv, Dst: 2, Block: b}
	if !m.DeferToTxn(2, msg) {
		t.Fatal("DeferToTxn refused a matching read txn")
	}
	if m.DeferToTxn(3, msg) {
		t.Fatal("DeferToTxn accepted a node without a txn")
	}
	other := &Msg{Type: MsgInv, Dst: 2, Block: b + 1}
	if m.DeferToTxn(2, other) {
		t.Fatal("DeferToTxn accepted a block mismatch")
	}
	if err := m.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequence of single-node reads and writes through the
// machine returns exactly the values a map would.
func TestQuickSingleNodeSemantics(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := DefaultConfig(2)
		cfg.CacheBytes = 8 * cfg.BlockBytes // force replacements too
		m, err := NewMachine(cfg, newFake())
		if err != nil {
			return false
		}
		base := m.Alloc(32 * 8)
		ref := map[uint64]uint64{}
		ok := true
		var step func(i int)
		step = func(i int) {
			if i >= len(ops) || !ok {
				return
			}
			op := ops[i]
			addr := base + uint64(op%32)*8
			if op&0x8000 != 0 {
				val := uint64(op)
				ref[addr] = val
				m.Access(0, addr, true, val, func(uint64) { step(i + 1) })
			} else {
				want := ref[addr]
				m.Access(0, addr, false, 0, func(v uint64) {
					if v != want {
						ok = false
					}
					step(i + 1)
				})
			}
		}
		step(0)
		if err := m.Quiesce(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHomePageInterleaving(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.HomePageBlocks = 8
	m, err := NewMachine(cfg, newFake())
	if err != nil {
		t.Fatal(err)
	}
	// Blocks 0..7 share a home; blocks 8..15 the next node.
	for b := BlockID(0); b < 8; b++ {
		if m.Home(b) != 0 {
			t.Fatalf("Home(%d) = %d, want 0", b, m.Home(b))
		}
	}
	for b := BlockID(8); b < 16; b++ {
		if m.Home(b) != 1 {
			t.Fatalf("Home(%d) = %d, want 1", b, m.Home(b))
		}
	}
	if m.Home(32) != 0 {
		t.Fatalf("Home(32) = %d, want wraparound to 0", m.Home(32))
	}
}

func TestConfigRejectsNegativeKnobs(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.HomePageBlocks = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative HomePageBlocks accepted")
	}
	cfg = DefaultConfig(4)
	cfg.WriteBuffer = -2
	if err := cfg.Validate(); err == nil {
		t.Error("negative WriteBuffer accepted")
	}
}

func TestPageInterleavedRunWorks(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Check = true
	cfg.HomePageBlocks = 16
	m, err := NewMachine(cfg, newFake())
	if err != nil {
		t.Fatal(err)
	}
	base := m.Alloc(64 * 8)
	doneCount := 0
	var step func(i int)
	step = func(i int) {
		if i >= 32 {
			return
		}
		doneCount++
		m.Access(1, base+uint64(i*8), i%2 == 0, uint64(i), func(uint64) { step(i + 1) })
	}
	step(0)
	if err := m.Quiesce(); err != nil {
		t.Fatal(err)
	}
	if doneCount != 32 {
		t.Fatalf("completed %d accesses, want 32", doneCount)
	}
}

// staleHitEngine serves reads but deliberately skips invalidation so a
// later read HIT observes a stale value — the monitor must catch it.
func TestMonitorCatchesStaleReadHit(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Check = true
	eng := newFake()
	eng.breakSWMR = true
	m, err := NewMachine(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	b := m.BlockOf(addr)
	// Node 1 reads (installs 0); node 0 writes 9 without invalidating;
	// node 1 read-hits the stale copy.
	m.Access(1, addr, false, 0, func(uint64) {
		m.Access(0, addr, true, 9, func(uint64) {
			m.Access(1, addr, false, 0, func(uint64) {})
		})
	})
	err = m.Quiesce()
	if err == nil {
		t.Fatal("monitor missed the stale read hit")
	}
	_ = b
}

// resetWorkload has every node of m walk four blocks through a
// two-line cache, mixing reads and writes, so the run exercises
// replacements, gate queueing and network contention. It returns
// without draining the kernel.
func resetWorkload(m *Machine, rounds int) {
	base := m.Alloc(4 * 8)
	for n := range m.Cfg.Procs {
		var step func(i int)
		step = func(i int) {
			if i == rounds {
				return
			}
			k := (n + i) % 4
			m.Access(NodeID(n), base+uint64(k*8), k == n%4, uint64(100*n+i), func(uint64) { step(i + 1) })
		}
		step(0)
	}
}

// TestResetMatchesFresh resets a machine stopped in mid-run — events
// queued, transactions outstanding, gates held, links busy — and
// requires the next run to match a fresh machine's exactly: cycles,
// counters, kernel and network totals, and the canonical state.
func TestResetMatchesFresh(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Check = true
	cfg.CacheBytes = 2 * cfg.BlockBytes
	run := func(m *Machine) string {
		t.Helper()
		resetWorkload(m, 6)
		if err := m.Quiesce(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		m.CanonState(&buf)
		return fmt.Sprintf("now %d executed %d sent %d ctr %+v\n%s", m.Now(), m.Executed(), m.Net.Sent(), *m.Ctr, buf.String())
	}
	fresh, err := NewMachine(cfg, newFake())
	if err != nil {
		t.Fatal(err)
	}
	want := run(fresh)

	used, err := NewMachine(cfg, newFake())
	if err != nil {
		t.Fatal(err)
	}
	resetWorkload(used, 3)
	used.eng.MaxEvents = 40
	if err := used.eng.Run(); err != sim.ErrEventBudget {
		t.Fatalf("Run = %v, want the event budget to stop it", err)
	}
	if used.eng.Pending() == 0 || used.Net.InFlight() == 0 {
		t.Fatal("the interrupted run left nothing behind to reset")
	}
	used.eng.MaxEvents = cfg.MaxEvents
	used.Reset(newFake())
	if got := run(used); got != want {
		t.Fatalf("after Reset:\n%s\nfresh machine:\n%s", got, want)
	}
}

// TestHitZeroAllocs checks that a cache hit allocates nothing: on a
// warmed sequential machine, a read hit and a write hit through Access,
// each with its completion event drained by RunKernel, cost no
// allocation.
func TestHitZeroAllocs(t *testing.T) {
	m, _ := newTestMachine(t, 4, false)
	addr := m.Alloc(8)
	done := func(uint64) {}
	// A write miss leaves node 1 holding the block exclusively.
	m.Access(1, addr, true, 5, done)
	if err := m.RunKernel(); err != nil {
		t.Fatal(err)
	}
	for _, write := range []bool{false, true} {
		allocs := testing.AllocsPerRun(100, func() {
			m.Access(1, addr, write, 7, done)
			if err := m.RunKernel(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("write=%v: a hit allocates %.1f times, want 0", write, allocs)
		}
	}
	if m.Ctr.ReadHits == 0 || m.Ctr.WriteHits == 0 {
		t.Fatalf("no hits measured: %+v", m.Ctr)
	}
}

// TestSendZeroAllocs checks that the machine's message transport
// allocates nothing of its own: a message value sent with Send and
// delivered to an engine handler that allocates nothing costs no
// allocation once the free list holds a record (AllocsPerRun's warm-up
// call fills it).
func TestSendZeroAllocs(t *testing.T) {
	m, _ := newTestMachine(t, 4, false)
	msg := Msg{Type: MsgInv, Src: 0, Dst: 3, Block: 2, Aux: NoNode, AckTo: NoNode}
	allocs := testing.AllocsPerRun(100, func() {
		m.Send(msg)
		if err := m.RunKernel(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sending and delivering a message allocates %.1f times, want 0", allocs)
	}
	if m.Net.Sent() != 101 || m.Net.InFlight() != 0 {
		t.Fatalf("sent %d, %d in flight; want 101 and 0", m.Net.Sent(), m.Net.InFlight())
	}
}

// TestWatchdogCountsInvalidations checks which messages feed the
// watchdog's hottest-blocks table: Inv, Update and ReplaceInv do, a data
// reply does not.
func TestWatchdogCountsInvalidations(t *testing.T) {
	m, _ := newTestMachine(t, 4, false)
	var buf bytes.Buffer
	wd := obs.NewWatchdog(0, &buf)
	wd.JSON = true
	m.AttachProbe(&obs.Probe{Watchdog: wd})
	for _, s := range []struct {
		typ   MsgType
		block BlockID
		n     int
	}{{MsgInv, 9, 3}, {MsgReplaceInv, 4, 2}, {MsgUpdate, 4, 1}, {MsgDataReply, 100, 5}} {
		for i := 0; i < s.n; i++ {
			m.Send(Msg{Type: s.typ, Src: 0, Dst: 1, Block: s.block, HasData: s.typ == MsgDataReply, Aux: NoNode, AckTo: NoNode})
		}
	}
	if err := m.RunKernel(); err != nil {
		t.Fatal(err)
	}
	wd.FireDrain(uint64(m.Now()), "test")
	var rep obs.Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	want := []obs.BlockCount{{Block: 4, Count: 3}, {Block: 9, Count: 3}}
	if fmt.Sprint(rep.HotBlocks) != fmt.Sprint(want) {
		t.Fatalf("hot blocks = %v, want %v", rep.HotBlocks, want)
	}
}

// holdEngine holds every gate it is handed: its HomeRequest never
// releases.
type holdEngine struct{ *fakeEngine }

func (holdEngine) HomeRequest(*Machine, *Msg) {}

// TestQuiesceNamesLowestHeldGate holds the gates of blocks h and h+P,
// both homed at node h, and requires Quiesce's error to name block h on
// every run.
func TestQuiesceNamesLowestHeldGate(t *testing.T) {
	const procs, h = 4, 1
	want := fmt.Sprintf("coherent: block %d gate still busy at quiesce", h)
	for run := 0; run < 20; run++ {
		m, err := NewMachine(DefaultConfig(procs), holdEngine{newFake()})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []BlockID{h + procs, h} {
			m.Send(Msg{Type: MsgReadReq, Src: 0, Dst: h, Block: b, Requester: 0,
				Aux: NoNode, ToDir: true, Gated: true})
		}
		if err := m.Quiesce(); err == nil || err.Error() != want {
			t.Fatalf("run %d: Quiesce = %v, want %q", run, err, want)
		}
	}
}

// TestHomeSlots stores directory entries for blocks at every home,
// block- and page-interleaved, including blocks past the allocated
// address space, and reads them back through Dir and DirBlocks.
func TestHomeSlots(t *testing.T) {
	for _, page := range []int{0, 4} {
		cfg := DefaultConfig(4)
		cfg.HomePageBlocks = page
		m, err := NewMachine(cfg, newFake())
		if err != nil {
			t.Fatal(err)
		}
		m.Alloc(10 * uint64(cfg.BlockBytes))
		blocks := []BlockID{45, 0, 3, 9, 17, 4, 100}
		for _, b := range blocks {
			m.SetDir(b, int(b)+1)
		}
		m.SetDir(9, nil)
		m.SetDir(1000, nil) // past every home's slots: a no-op
		want := []BlockID{0, 3, 4, 17, 45, 100}
		if got := m.DirBlocks(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("page %d: DirBlocks = %v, want %v", page, got, want)
		}
		for _, b := range want {
			if got := m.Dir(b); got != int(b)+1 {
				t.Fatalf("page %d: Dir(%d) = %v, want %d", page, b, got, b+1)
			}
			home, i := m.slotOf(b)
			if got := m.slotBlock(home, i); home != m.Home(b) || got != b {
				t.Fatalf("page %d: block %d (home %d) maps to slot %d of home %d, which holds block %d",
					page, b, m.Home(b), i, home, got)
			}
		}
		if m.Dir(9) != nil || m.Dir(1000) != nil {
			t.Fatalf("page %d: cleared or never-set entries read back non-nil", page)
		}
	}
}
