package fullmap

import (
	"testing"

	"dircc/internal/coherent"
	"dircc/internal/proc"
	"dircc/internal/protocol/ptest"
)

func TestConformance(t *testing.T) {
	ptest.Conformance(t, func() coherent.Engine { return New() })
}

func TestName(t *testing.T) {
	if New().Name() != "fm" {
		t.Fatal("name")
	}
}

func TestDirectoryBits(t *testing.T) {
	cfg := coherent.DefaultConfig(32)
	e := New()
	// B·n² presence + B·n dirty: 100 blocks/node, 32 nodes.
	want := int64(100*32*32 + 100*32)
	if got := e.DirectoryBits(cfg, 100); got != want {
		t.Fatalf("DirectoryBits = %d, want %d", got, want)
	}
}

// Read miss on an uncached block must cost exactly 2 protocol messages.
func TestReadMissTwoMessages(t *testing.T) {
	cfg := coherent.DefaultConfig(4)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, New())
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		if e.ID() == 1 {
			e.Read(addr)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if m.Ctr.Messages != 2 {
		t.Fatalf("read miss used %d messages, want 2 (req + reply)", m.Ctr.Messages)
	}
	if m.Ctr.MsgByType["ReadReq"] != 1 || m.Ctr.MsgByType["DataReply"] != 1 {
		t.Fatalf("message types wrong: %v", m.Ctr.MsgByType)
	}
}

// A write miss with P sharers costs 2P+2 messages (request, P inv,
// P ack, reply).
func TestWriteMissInvalidatesAllSharers(t *testing.T) {
	cfg := coherent.DefaultConfig(8)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, New())
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		// Processors 1..7 share the block; processor 0 then writes.
		if e.ID() != 0 {
			e.Read(addr)
		}
		e.Barrier()
		if e.ID() == 0 {
			e.Write(addr, 99)
		}
	}); err != nil {
		t.Fatal(err)
	}
	const p = 7
	if m.Ctr.Invalidations != p {
		t.Fatalf("sent %d invalidations, want %d", m.Ctr.Invalidations, p)
	}
	if m.Ctr.InvAcks != p {
		t.Fatalf("collected %d acks, want %d", m.Ctr.InvAcks, p)
	}
	// Total: 7 read misses (2 msgs each) + write (1 req + 7 inv + 7 ack + 1 reply).
	want := uint64(7*2 + 2 + 2*p)
	if m.Ctr.Messages != want {
		t.Fatalf("total messages %d, want %d", m.Ctr.Messages, want)
	}
}

// A read miss on a dirty block triggers the RM_WW writeback recall and
// the owner keeps a demoted shared copy.
func TestReadMissOnDirtyBlockRecalls(t *testing.T) {
	cfg := coherent.DefaultConfig(4)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, New())
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	var got uint64
	if _, err := proc.Run(m, func(e proc.Env) {
		if e.ID() == 0 {
			e.Write(addr, 1234)
		}
		e.Barrier()
		if e.ID() == 1 {
			got = e.Read(addr)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1234 {
		t.Fatalf("read %d, want 1234", got)
	}
	if m.Ctr.MsgByType["WbReq"] != 1 || m.Ctr.MsgByType["WbData"] != 1 {
		t.Fatalf("recall messages wrong: %v", m.Ctr.MsgByType)
	}
}

func BenchmarkFullMapMix(b *testing.B) {
	ptest.BenchmarkMix(b, func() coherent.Engine { return New() })
}

// TestPresenceSpansTwoWords runs fm at P=128, where the presence vector
// has two words: every node but 0 shares a block, node 0 writes it
// (127 invalidations over both words), the upper half re-reads it
// (recalling the dirty copy, whose owner stays a sharer), and node 70
// writes it again. The cycle and message counts were recorded with the
// map-based sharer set the vector replaced.
func TestPresenceSpansTwoWords(t *testing.T) {
	cfg := coherent.DefaultConfig(128)
	cfg.Check = true
	m, err := coherent.NewMachine(cfg, New())
	if err != nil {
		t.Fatal(err)
	}
	addr := m.Alloc(8)
	if _, err := proc.Run(m, func(e proc.Env) {
		if e.ID() != 0 {
			e.Read(addr)
		}
		e.Barrier()
		if e.ID() == 0 {
			e.Write(addr, 1)
		}
		e.Barrier()
		if e.ID() >= 64 {
			e.Read(addr)
		}
		e.Barrier()
		if e.ID() == 70 {
			e.Write(addr, 2)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// 127 + 64 invalidations: node 70's write reaches node 0 and the
	// 63 other upper-half readers.
	if m.Ctr.Invalidations != 191 || m.Ctr.InvAcks != 191 {
		t.Errorf("%d invalidations, %d acks; want 191 each", m.Ctr.Invalidations, m.Ctr.InvAcks)
	}
	if m.Ctr.MsgByType["WbReq"] != 1 || m.Ctr.MsgByType["WbData"] != 1 {
		t.Errorf("recall messages wrong: %v", m.Ctr.MsgByType)
	}
	if m.Ctr.Cycles != 4906 || m.Ctr.Messages != 770 {
		t.Errorf("%d cycles, %d messages; want 4906 and 770", m.Ctr.Cycles, m.Ctr.Messages)
	}
}

// TestMissRoundTripAllocs: once its free lists are warm, full-map serves
// miss round trips without allocating. One round on P=8 has six readers
// read a block the writer then writes: the first read recalls the dirty
// copy (a pending record waits for the writeback), and the write
// invalidates the six sharers (a pending record counts their acks).
func TestMissRoundTripAllocs(t *testing.T) {
	m, err := coherent.NewMachine(coherent.DefaultConfig(8), New())
	if err != nil {
		t.Fatal(err)
	}
	refs := ptest.NewRefs(t, m)
	readers := ptest.Nodes(0, 6)
	cycle := refs.Cycle(readers, 7)
	for range 3 {
		cycle() // warm the free lists
	}
	misses, invs, wbs := m.Ctr.ReadMisses+m.Ctr.WriteMisses, m.Ctr.Invalidations, m.Ctr.Writebacks
	cycle()
	if got := m.Ctr.ReadMisses + m.Ctr.WriteMisses - misses; got != uint64(len(readers)+1) {
		t.Fatalf("a round made %d misses, want %d: every reference must miss", got, len(readers)+1)
	}
	if m.Ctr.Invalidations-invs != uint64(len(readers)) || m.Ctr.Writebacks-wbs != 1 {
		t.Fatalf("a round made %d invalidations and %d writebacks, want %d and 1",
			m.Ctr.Invalidations-invs, m.Ctr.Writebacks-wbs, len(readers))
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a round of %d misses allocates %.1f objects, want 0", len(readers)+1, allocs)
	}
}
