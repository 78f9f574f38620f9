package attrib

import (
	"strings"
	"testing"

	"dircc/internal/obs"
)

// feed plays a synthetic event sequence into a fresh collector.
func feed(events []obs.Event) *Collector {
	c := NewCollector()
	for _, e := range events {
		c.Event(e)
	}
	return c
}

// TestReadMissPhases checks the six-phase split of a textbook two-hop
// read miss: request out, home services, data back.
func TestReadMissPhases(t *testing.T) {
	c := feed([]obs.Event{
		{At: 100, Kind: obs.KindTxnStart, Src: 0, Block: 7},
		{At: 101, Kind: obs.KindSend, Type: "ReadReq", Src: 0, Dst: 3, Block: 7, Req: 0, ID: 1, Dir: true},
		{At: 110, Kind: obs.KindDeliver, Type: "ReadReq", Src: 0, Dst: 3, Block: 7, Req: 0, ID: 1, Dir: true},
		{At: 115, Kind: obs.KindHomeStart, Src: 3, Block: 7, Req: 0},
		{At: 120, Kind: obs.KindSend, Type: "DataReply", Src: 3, Dst: 0, Block: 7, Req: 0, ID: 2},
		{At: 135, Kind: obs.KindDeliver, Type: "DataReply", Src: 3, Dst: 0, Block: 7, Req: 0, ID: 2},
		{At: 137, Kind: obs.KindTxnEnd, Src: 0, Block: 7},
	})
	rep := c.Report()
	r := rep.Reads
	if r.Count != 1 || r.Unattributed != 0 {
		t.Fatalf("count=%d unattributed=%d, want 1/0", r.Count, r.Unattributed)
	}
	want := [NumPhases]uint64{
		PhaseIssue:        1,  // 100 → 101
		PhaseReqTransit:   9,  // 101 → 110
		PhaseHomeQueue:    5,  // 110 → 115
		PhaseService:      5,  // 115 → 120
		PhaseReplyTransit: 15, // 120 → 135
		PhaseTail:         2,  // 135 → 137
	}
	if r.Phases != want {
		t.Errorf("phases = %v, want %v", r.Phases, want)
	}
	if r.TotalCycles != 37 {
		t.Errorf("total = %d, want 37", r.TotalCycles)
	}
	if r.PathMsgs[2] != 1 || len(r.PathMsgs) != 1 {
		t.Errorf("path hist = %v, want {2:1}", r.PathMsgs)
	}
	// Critical path in cycles: issue (100) to the last causal delivery
	// (135).
	if r.PathCycles != 35 {
		t.Errorf("path cycles = %d, want 35", r.PathCycles)
	}
	if rep.OpenTxns != 0 {
		t.Errorf("open = %d, want 0", rep.OpenTxns)
	}
}

// TestCriticalPathChaining checks that path depth follows causality: a
// message sent from a node only counts as a deeper link if an earlier
// message of the same transaction was delivered there first.
func TestCriticalPathChaining(t *testing.T) {
	// Requester 0 → home 2 → owner 1 → requester 0: a three-hop
	// dirty-read recall chain, plus an unrelated parallel message from
	// the home that must not deepen the path.
	c := feed([]obs.Event{
		{At: 0, Kind: obs.KindTxnStart, Src: 0, Block: 9},
		{At: 1, Kind: obs.KindSend, Type: "ReadReq", Src: 0, Dst: 2, Block: 9, Req: 0, ID: 1, Dir: true},
		{At: 5, Kind: obs.KindDeliver, Type: "ReadReq", Src: 0, Dst: 2, Block: 9, Req: 0, ID: 1, Dir: true},
		{At: 5, Kind: obs.KindHomeStart, Src: 2, Block: 9, Req: 0},
		{At: 6, Kind: obs.KindSend, Type: "Fwd", Src: 2, Dst: 1, Block: 9, Req: 0, ID: 2},
		{At: 9, Kind: obs.KindDeliver, Type: "Fwd", Src: 2, Dst: 1, Block: 9, Req: 0, ID: 2},
		{At: 10, Kind: obs.KindSend, Type: "DataReply", Src: 1, Dst: 0, Block: 9, Req: 0, ID: 3},
		{At: 14, Kind: obs.KindDeliver, Type: "DataReply", Src: 1, Dst: 0, Block: 9, Req: 0, ID: 3},
		{At: 15, Kind: obs.KindTxnEnd, Src: 0, Block: 9},
	})
	r := c.Report().Reads
	if r.PathMsgs[3] != 1 || len(r.PathMsgs) != 1 {
		t.Errorf("path hist = %v, want {3:1}", r.PathMsgs)
	}
	if r.Msgs != 3 {
		t.Errorf("msgs = %d, want 3", r.Msgs)
	}
}

// TestWaveAccounting checks wave structure: roots vs forwarded levels,
// the home-ack count, and the Figure-7 split violation rule.
func TestWaveAccounting(t *testing.T) {
	// Home 4 fans Inv to roots 1 and 2; root 1 forwards to 3 (level 2);
	// root 1 acks home on behalf of the subtree (1 home ack ≤
	// ceil(2/2)=1 → no violation).
	evs := []obs.Event{
		{At: 0, Kind: obs.KindTxnStart, Src: 0, Block: 5, Write: true},
		{At: 1, Kind: obs.KindSend, Type: "WriteReq", Src: 0, Dst: 4, Block: 5, Req: 0, ID: 1, Dir: true},
		{At: 4, Kind: obs.KindDeliver, Type: "WriteReq", Src: 0, Dst: 4, Block: 5, Req: 0, ID: 1, Dir: true},
		{At: 4, Kind: obs.KindHomeStart, Src: 4, Block: 5, Req: 0},
		{At: 5, Kind: obs.KindSend, Type: "Inv", Src: 4, Dst: 1, Block: 5, Req: 0, ID: 2, Wave: 1},
		{At: 5, Kind: obs.KindSend, Type: "Inv", Src: 4, Dst: 2, Block: 5, Req: 0, ID: 3, Wave: 1},
		{At: 8, Kind: obs.KindDeliver, Type: "Inv", Src: 4, Dst: 1, Block: 5, Req: 0, ID: 2, Wave: 1},
		{At: 9, Kind: obs.KindDeliver, Type: "Inv", Src: 4, Dst: 2, Block: 5, Req: 0, ID: 3, Wave: 1},
		{At: 10, Kind: obs.KindSend, Type: "Inv", Src: 1, Dst: 3, Block: 5, Req: 0, ID: 4, Wave: 1},
		{At: 13, Kind: obs.KindDeliver, Type: "Inv", Src: 1, Dst: 3, Block: 5, Req: 0, ID: 4, Wave: 1},
		{At: 14, Kind: obs.KindSend, Type: "InvAck", Src: 3, Dst: 1, Block: 5, Req: 0, ID: 5},
		{At: 17, Kind: obs.KindDeliver, Type: "InvAck", Src: 3, Dst: 1, Block: 5, Req: 0, ID: 5},
		{At: 18, Kind: obs.KindSend, Type: "InvAck", Src: 1, Dst: 4, Block: 5, Req: 0, ID: 6, Dir: true},
		{At: 21, Kind: obs.KindDeliver, Type: "InvAck", Src: 1, Dst: 4, Block: 5, Req: 0, ID: 6, Dir: true},
		{At: 22, Kind: obs.KindSend, Type: "WriteReply", Src: 4, Dst: 0, Block: 5, Req: 0, ID: 7},
		{At: 25, Kind: obs.KindDeliver, Type: "WriteReply", Src: 4, Dst: 0, Block: 5, Req: 0, ID: 7},
		{At: 26, Kind: obs.KindTxnEnd, Src: 0, Block: 5},
	}
	c := feed(evs)
	w := c.Report().Wave
	if w.Waves != 1 {
		t.Fatalf("waves = %d, want 1", w.Waves)
	}
	if w.Msgs != 3 || w.Roots != 2 {
		t.Errorf("msgs=%d roots=%d, want 3/2", w.Msgs, w.Roots)
	}
	if w.HomeAcks != 1 {
		t.Errorf("home acks = %d, want 1 (only the Dir-tagged ack to the home)", w.HomeAcks)
	}
	if w.SplitViolations != 0 {
		t.Errorf("split violations = %d, want 0 (1 ack ≤ ceil(2/2))", w.SplitViolations)
	}
	if w.DepthHist[2] != 1 || len(w.DepthHist) != 1 {
		t.Errorf("depth hist = %v, want {2:1}", w.DepthHist)
	}
	// Level timing: level 1 completes at 9 (5 cycles after wave start
	// at 4... waveSendAt=5), level 2 at 13.
	if len(w.LevelCycles) != 2 || w.LevelCycles[0] != 4 || w.LevelCycles[1] != 4 {
		t.Errorf("level cycles = %v, want [4 4]", w.LevelCycles)
	}
	// Ack tail: last wave delivery 13 → last home ack 21.
	if w.AckTail != 8 {
		t.Errorf("ack tail = %d, want 8", w.AckTail)
	}

	// Same wave but every leaf acks the home directly: 2 roots with 3
	// home acks > ceil(2/2) = 1 → one violation.
	evs2 := make([]obs.Event, len(evs))
	copy(evs2, evs)
	evs2[10] = obs.Event{At: 14, Kind: obs.KindSend, Type: "InvAck", Src: 3, Dst: 4, Block: 5, Req: 0, ID: 5, Dir: true}
	evs2[11] = obs.Event{At: 17, Kind: obs.KindDeliver, Type: "InvAck", Src: 3, Dst: 4, Block: 5, Req: 0, ID: 5, Dir: true}
	extra := []obs.Event{
		{At: 18, Kind: obs.KindSend, Type: "InvAck", Src: 2, Dst: 4, Block: 5, Req: 0, ID: 8, Dir: true},
		{At: 20, Kind: obs.KindDeliver, Type: "InvAck", Src: 2, Dst: 4, Block: 5, Req: 0, ID: 8, Dir: true},
	}
	evs2 = append(evs2[:len(evs2)-3], append(extra, evs2[len(evs2)-3:]...)...)
	w2 := feed(evs2).Report().Wave
	if w2.HomeAcks != 3 {
		t.Errorf("home acks = %d, want 3", w2.HomeAcks)
	}
	if w2.SplitViolations != 1 {
		t.Errorf("split violations = %d, want 1 (3 acks > ceil(2/2))", w2.SplitViolations)
	}
}

// TestWaveDepth checks that wave depth follows the Inv forwarding
// chain: an Inv a node sends after an earlier Inv of the same wave was
// delivered to it sits one level below that one. Writer 9 misses on
// block 5 at home 0.
func TestWaveDepth(t *testing.T) {
	open := []obs.Event{
		{At: 0, Kind: obs.KindTxnStart, Src: 9, Block: 5, Write: true},
		{At: 1, Kind: obs.KindSend, Type: "WriteReq", Src: 9, Dst: 0, Block: 5, Req: 9, ID: 1, Dir: true},
		{At: 9, Kind: obs.KindDeliver, Type: "WriteReq", Src: 9, Dst: 0, Block: 5, Req: 9, ID: 1, Dir: true},
		{At: 10, Kind: obs.KindHomeStart, Type: "WriteReq", Src: 0, Block: 5, Req: 9},
	}
	inv := func(at uint64, src, dst int, id int64) obs.Event {
		return obs.Event{At: at, Kind: obs.KindSend, Type: "Inv", Src: src, Dst: dst, Block: 5, Req: 9, ID: id, Wave: 1}
	}
	arrive := func(at uint64, src, dst int, id int64) obs.Event {
		return obs.Event{At: at, Kind: obs.KindDeliver, Type: "Inv", Src: src, Dst: dst, Block: 5, Req: 9, ID: id, Wave: 1}
	}
	cases := []struct {
		name               string
		wave               []obs.Event
		msgs, roots, depth int
	}{
		{
			// The home fans out to roots 1 and 2; root 1 forwards to 3
			// and 4 once its Inv arrives, and node 3 forwards to 6.
			name: "forwarding chain",
			wave: []obs.Event{
				inv(11, 0, 1, 2), inv(11, 0, 2, 3),
				arrive(20, 0, 1, 2), inv(20, 1, 3, 4), inv(20, 1, 4, 5),
				arrive(22, 0, 2, 3),
				arrive(30, 1, 3, 4), inv(30, 3, 6, 6),
				arrive(32, 1, 4, 5), arrive(40, 3, 6, 6),
			},
			msgs: 5, roots: 2, depth: 3,
		},
		{
			// Full-map style: the home sends every Inv before any
			// arrives.
			name: "flat fan-out",
			wave: []obs.Event{
				inv(11, 0, 1, 2), inv(11, 0, 2, 3), inv(11, 0, 3, 4), inv(11, 0, 4, 5),
				arrive(21, 0, 1, 2), arrive(22, 0, 2, 3), arrive(23, 0, 3, 4), arrive(24, 0, 4, 5),
			},
			msgs: 4, roots: 4, depth: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			evs := append(append([]obs.Event{}, open...), c.wave...)
			evs = append(evs,
				obs.Event{At: 45, Kind: obs.KindSend, Type: "WriteReply", Src: 0, Dst: 9, Block: 5, Req: 9, ID: 7},
				obs.Event{At: 50, Kind: obs.KindDeliver, Type: "WriteReply", Src: 0, Dst: 9, Block: 5, Req: 9, ID: 7},
				obs.Event{At: 51, Kind: obs.KindTxnEnd, Src: 9, Block: 5, Write: true},
			)
			w := feed(evs).Report().Wave
			if w.Waves != 1 || w.Msgs != uint64(c.msgs) || w.Roots != uint64(c.roots) {
				t.Errorf("waves=%d msgs=%d roots=%d, want 1/%d/%d", w.Waves, w.Msgs, w.Roots, c.msgs, c.roots)
			}
			if w.MaxDepth() != c.depth || w.DepthHist[c.depth] != 1 || len(w.DepthHist) != 1 {
				t.Errorf("depth hist = %v, want {%d:1}", w.DepthHist, c.depth)
			}
		})
	}
}

// TestUnattributed checks that missing or non-monotone checkpoints
// count the transaction but not its phases.
func TestUnattributed(t *testing.T) {
	// No home_start ever arrives (e.g. a cache-to-cache transfer the
	// protocol satisfied without the home).
	c := feed([]obs.Event{
		{At: 0, Kind: obs.KindTxnStart, Src: 0, Block: 1},
		{At: 1, Kind: obs.KindSend, Type: "ReadReq", Src: 0, Dst: 2, Block: 1, Req: 0, ID: 1, Dir: true},
		{At: 5, Kind: obs.KindDeliver, Type: "ReadReq", Src: 0, Dst: 2, Block: 1, Req: 0, ID: 1, Dir: true},
		{At: 9, Kind: obs.KindTxnEnd, Src: 0, Block: 1},
	})
	r := c.Report().Reads
	if r.Count != 1 || r.Unattributed != 1 {
		t.Errorf("count=%d unattributed=%d, want 1/1", r.Count, r.Unattributed)
	}
	if r.TotalCycles != 9 {
		t.Errorf("total = %d, want 9 (unattributed still counts toward the mean)", r.TotalCycles)
	}
	var sum uint64
	for _, v := range r.Phases {
		sum += v
	}
	if sum != 0 {
		t.Errorf("phases = %v, want all zero", r.Phases)
	}
}

// TestOpenTxns checks that transactions without txn_end surface in
// OpenTxns, the truncated-run warning.
func TestOpenTxns(t *testing.T) {
	c := feed([]obs.Event{
		{At: 0, Kind: obs.KindTxnStart, Src: 0, Block: 1},
		{At: 0, Kind: obs.KindTxnStart, Src: 1, Block: 2, Write: true},
		{At: 9, Kind: obs.KindTxnEnd, Src: 0, Block: 1},
	})
	rep := c.Report()
	if rep.OpenTxns != 1 {
		t.Errorf("open = %d, want 1", rep.OpenTxns)
	}
	if rep.Reads.Count != 1 || rep.Writes.Count != 0 {
		t.Errorf("reads=%d writes=%d, want 1/0", rep.Reads.Count, rep.Writes.Count)
	}
	if !strings.Contains(rep.String(), "WARNING") {
		t.Error("table must warn about open transactions")
	}
}

// TestForeignEventsIgnored checks that events for other requesters or
// unknown message ids don't disturb an open transaction.
func TestForeignEventsIgnored(t *testing.T) {
	c := feed([]obs.Event{
		{At: 0, Kind: obs.KindTxnStart, Src: 0, Block: 1},
		// A different node's message on the same block.
		{At: 1, Kind: obs.KindSend, Type: "ReadReq", Src: 5, Dst: 2, Block: 1, Req: 5, ID: 99, Dir: true},
		{At: 2, Kind: obs.KindDeliver, Type: "ReadReq", Src: 5, Dst: 2, Block: 1, Req: 5, ID: 99, Dir: true},
		// A deliver with an id never sent while probing was attached.
		{At: 3, Kind: obs.KindDeliver, Type: "DataReply", Src: 2, Dst: 0, Block: 1, Req: 0, ID: 1234},
		{At: 4, Kind: obs.KindTxnEnd, Src: 0, Block: 1},
	})
	r := c.Report().Reads
	if r.Count != 1 || r.Msgs != 0 {
		t.Errorf("count=%d msgs=%d, want 1/0", r.Count, r.Msgs)
	}
	if r.PathMsgs[0] != 1 {
		t.Errorf("path hist = %v, want {0:1}", r.PathMsgs)
	}
}

// TestCSVShape checks the header and row agree on column count and the
// row carries the headline numbers.
func TestCSVShape(t *testing.T) {
	c := feed([]obs.Event{
		{At: 100, Kind: obs.KindTxnStart, Src: 0, Block: 7},
		{At: 101, Kind: obs.KindSend, Type: "ReadReq", Src: 0, Dst: 3, Block: 7, Req: 0, ID: 1, Dir: true},
		{At: 110, Kind: obs.KindDeliver, Type: "ReadReq", Src: 0, Dst: 3, Block: 7, Req: 0, ID: 1, Dir: true},
		{At: 115, Kind: obs.KindHomeStart, Src: 3, Block: 7, Req: 0},
		{At: 120, Kind: obs.KindSend, Type: "DataReply", Src: 3, Dst: 0, Block: 7, Req: 0, ID: 2},
		{At: 135, Kind: obs.KindDeliver, Type: "DataReply", Src: 3, Dst: 0, Block: 7, Req: 0, ID: 2},
		{At: 137, Kind: obs.KindTxnEnd, Src: 0, Block: 7},
	})
	head := strings.Split(CSVHeader(), ",")
	row := strings.Split(c.Report().CSVRow(), ",")
	if len(head) != len(row) {
		t.Fatalf("header has %d columns, row has %d", len(head), len(row))
	}
	cols := map[string]string{}
	for i, h := range head {
		cols[h] = row[i]
	}
	if cols["read_txns"] != "1" {
		t.Errorf("read_txns = %q, want 1", cols["read_txns"])
	}
	if cols["read_total"] != "37.00" {
		t.Errorf("read_total = %q, want 37.00", cols["read_total"])
	}
	if cols["read_path_msgs_max"] != "2" {
		t.Errorf("read_path_msgs_max = %q, want 2", cols["read_path_msgs_max"])
	}
}
