// Package attrib folds the probe event stream into per-transaction
// latency attribution: where the cycles of each miss went (phase
// breakdown) and how long its causal message chain was (critical
// path). It is the quantitative counterpart of the paper's latency
// arguments — a read miss costs exactly 2 messages under the
// directory schemes, a write-miss invalidation wave completes in
// ~ceil(log_k P)+1 levels under Dir_iTree_k, and the Figure-7 even→odd
// root ack split halves what the home must collect.
//
// The Collector is an obs.Sink: it consumes events in-process as the
// simulation emits them (no JSONL re-parse), on the simulation
// goroutine, and never schedules events, so attaching it cannot change
// a cycle count. When no collector is attached the hot path pays
// nothing — the machine builds no event without a trace or sink.
package attrib

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dircc/internal/obs"
)

// Phase indexes the six segments a miss transaction's lifetime is cut
// into, in checkpoint order.
type Phase int

const (
	// PhaseIssue is txn_start → request send (miss detection).
	PhaseIssue Phase = iota
	// PhaseReqTransit is request send → request delivery at the home.
	PhaseReqTransit
	// PhaseHomeQueue is request delivery → home_start (time queued
	// behind the per-block gate).
	PhaseHomeQueue
	// PhaseService is home_start → final reply send: directory lookup,
	// memory access, owner recall, and — for protocols whose home
	// collects invalidation acks before granting (fullmap, Dir_i,
	// Dir_iTree_k) — the whole invalidation wave.
	PhaseService
	// PhaseReplyTransit is reply send → reply delivery at the
	// requester.
	PhaseReplyTransit
	// PhaseTail is reply delivery → txn_end (install plus any deferred
	// message handling).
	PhaseTail
	// NumPhases is the number of phases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"issue", "req_transit", "home_queue", "service", "reply_transit", "tail",
}

// String returns the phase's snake_case name (the CSV column stem).
func (ph Phase) String() string {
	if ph >= 0 && ph < NumPhases {
		return phaseNames[ph]
	}
	return fmt.Sprintf("Phase(%d)", int(ph))
}

// PhaseAgg aggregates the phase breakdown over one class of
// transactions (reads or writes).
type PhaseAgg struct {
	// Count is the number of completed transactions.
	Count uint64 `json:"count"`
	// Unattributed is how many of Count had missing or non-monotone
	// checkpoints (e.g. a run truncated by MaxEvents mid-protocol) and
	// contribute to TotalCycles but not to Phases.
	Unattributed uint64 `json:"unattributed"`
	// TotalCycles sums issue→completion over all Count transactions.
	TotalCycles uint64 `json:"total_cycles"`
	// Phases sums per-phase cycles over the attributed transactions.
	Phases [NumPhases]uint64 `json:"phases"`
	// PathMsgs histograms the critical-path length in messages: the
	// longest causal send chain among the transaction's own messages
	// (delivered to a node before that node sent the next link).
	PathMsgs map[int]uint64 `json:"path_msgs"`
	// PathCycles sums issue→last-causal-delivery over the Count
	// transactions (the critical path measured in cycles).
	PathCycles uint64 `json:"path_cycles"`
	// Msgs sums the number of messages each transaction owned.
	Msgs uint64 `json:"msgs"`
}

// MeanPhase returns the mean cycles spent in ph per attributed
// transaction.
func (a *PhaseAgg) MeanPhase(ph Phase) float64 {
	n := a.Count - a.Unattributed
	if n == 0 {
		return 0
	}
	return float64(a.Phases[ph]) / float64(n)
}

// MeanTotal returns the mean issue→completion latency.
func (a *PhaseAgg) MeanTotal() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.TotalCycles) / float64(a.Count)
}

// MeanPathMsgs returns the mean critical-path length in messages.
func (a *PhaseAgg) MeanPathMsgs() float64 {
	if a.Count == 0 {
		return 0
	}
	var sum uint64
	for l, n := range a.PathMsgs {
		sum += uint64(l) * n
	}
	return float64(sum) / float64(a.Count)
}

// MaxPathMsgs returns the longest critical path seen, in messages.
func (a *PhaseAgg) MaxPathMsgs() int {
	max := 0
	for l := range a.PathMsgs {
		if l > max {
			max = l
		}
	}
	return max
}

// WaveAgg aggregates invalidation-wave structure over the write
// transactions that triggered one (sharers to invalidate).
type WaveAgg struct {
	// Waves is the number of write transactions whose wave carried at
	// least one Inv/Update.
	Waves uint64 `json:"waves"`
	// Msgs is the total number of wave messages.
	Msgs uint64 `json:"msgs"`
	// Roots is the total number of wave messages injected by the home
	// (the fan-out roots; forwarded tree levels are excluded).
	Roots uint64 `json:"roots"`
	// HomeAcks is the total number of directory-bound InvAcks the home
	// collected during the waves. Under the Figure-7 even→odd split
	// this is ceil(roots/2) per wave; flat schemes collect one per
	// sharer.
	HomeAcks uint64 `json:"home_acks"`
	// DepthHist histograms wave depth (longest Inv forwarding chain;
	// depth 1 is a flat fan-out).
	DepthHist map[int]uint64 `json:"depth_hist"`
	// LevelCycles sums, per wave level (1-based index l-1), the cycles
	// from the previous level's completion to level l's completion —
	// the per-level timing of the invalidation cascade.
	LevelCycles []uint64 `json:"level_cycles"`
	// LevelCount counts waves reaching each level, for means.
	LevelCount []uint64 `json:"level_count"`
	// SplitViolations counts waves where the home collected more than
	// ceil(roots/2) acks. Only meaningful for engines using the
	// Figure-7 root-ack discipline (Dir_iTree_k, STP); flat schemes
	// violate it by construction.
	SplitViolations uint64 `json:"split_violations"`
	// AckTail sums, per wave, the cycles from the last wave-message
	// delivery to the last home ack delivery (the ack-collection tail).
	AckTail uint64 `json:"ack_tail"`
}

// MaxDepth returns the deepest wave seen.
func (w *WaveAgg) MaxDepth() int {
	max := 0
	for d := range w.DepthHist {
		if d > max {
			max = d
		}
	}
	return max
}

// Report is the aggregated attribution for one experiment.
type Report struct {
	Reads  PhaseAgg `json:"reads"`
	Writes PhaseAgg `json:"writes"`
	Wave   WaveAgg  `json:"wave"`
	// OpenTxns is how many transactions never reached txn_end (nonzero
	// only for truncated or deadlocked runs).
	OpenTxns int `json:"open_txns"`
}

type txnKey struct {
	node  int
	block uint64
}

// txn is one in-flight transaction's attribution state.
type txn struct {
	node  int
	block uint64
	write bool

	startAt        uint64
	reqID          int64
	reqSendAt      uint64
	reqDeliverAt   uint64
	homeStartAt    uint64
	replySendAt    uint64
	replyDeliverAt uint64

	msgs          int
	depthAt       map[int]int // node → deepest own message delivered there
	maxDepth      int
	lastDeliverAt uint64
	ids           []int64 // own messages still in flight

	// invalidation-wave state (writes only)
	waveDepthAt  map[int]int
	waveMsgs     int
	roots        int
	homeAcks     int
	waveSendAt   uint64   // first wave-message send
	levelAt      []uint64 // per wave level (1-based), latest delivery
	lastWaveAt   uint64   // latest wave-message delivery
	lastHomeAck  uint64   // latest home ack delivery
	waveMaxDepth int
}

// msgRef resolves a delivered message id back to its owning
// transaction.
type msgRef struct {
	t      *txn
	depth  int
	sentAt uint64
	wave   bool
	level  int
}

// Collector implements obs.Sink, folding the event stream into a
// Report as the simulation runs. It is single-goroutine like the rest
// of the probe layer; read the Report only after the run quiesces.
type Collector struct {
	open  map[txnKey]*txn
	refs  map[int64]*msgRef
	homes map[uint64]int // block → home node (learned from home_start)
	rep   Report
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		open:  make(map[txnKey]*txn),
		refs:  make(map[int64]*msgRef),
		homes: make(map[uint64]int),
	}
}

// Report returns the aggregation so far. Open transactions are counted
// in OpenTxns, not in the per-class aggregates.
func (c *Collector) Report() *Report {
	c.rep.OpenTxns = len(c.open)
	return &c.rep
}

// dataReply reports whether typ is a message that can complete a miss
// at the requester (DataReply/WriteReply from the home, ChainData from
// a list predecessor).
func dataReply(typ string) bool {
	return typ == "DataReply" || typ == "WriteReply" || typ == "ChainData"
}

// Event implements obs.Sink.
func (c *Collector) Event(e obs.Event) {
	switch e.Kind {
	case obs.KindTxnStart:
		c.open[txnKey{e.Src, e.Block}] = &txn{
			node: e.Src, block: e.Block, write: e.Write,
			startAt: e.At, depthAt: make(map[int]int),
		}
	case obs.KindHomeStart:
		c.homes[e.Block] = e.Src
		if t := c.open[txnKey{e.Req, e.Block}]; t != nil && t.homeStartAt == 0 {
			t.homeStartAt = e.At
		}
	case obs.KindSend:
		t := c.open[txnKey{e.Req, e.Block}]
		if t == nil {
			return
		}
		t.msgs++
		depth := t.depthAt[e.Src] + 1
		if depth > t.maxDepth {
			t.maxDepth = depth
		}
		ref := &msgRef{t: t, depth: depth, sentAt: e.At}
		if t.reqSendAt == 0 && e.Src == t.node {
			t.reqSendAt = e.At
			t.reqID = e.ID
		}
		if t.write && e.Wave > 0 {
			if t.waveDepthAt == nil {
				t.waveDepthAt = make(map[int]int)
				t.waveSendAt = e.At
			}
			ref.wave = true
			ref.level = t.waveDepthAt[e.Src] + 1
			if ref.level > t.waveMaxDepth {
				t.waveMaxDepth = ref.level
			}
			t.waveMsgs++
			if home, ok := c.homes[e.Block]; ok && e.Src == home {
				t.roots++
			}
		}
		c.refs[e.ID] = ref
		t.ids = append(t.ids, e.ID)
	case obs.KindDeliver:
		ref := c.refs[e.ID]
		if ref == nil {
			return
		}
		delete(c.refs, e.ID)
		t := ref.t
		if ref.depth > t.depthAt[e.Dst] {
			t.depthAt[e.Dst] = ref.depth
		}
		if e.At > t.lastDeliverAt {
			t.lastDeliverAt = e.At
		}
		if e.ID == t.reqID && t.reqDeliverAt == 0 {
			t.reqDeliverAt = e.At
		}
		if dataReply(e.Type) && e.Dst == t.node {
			// The last such delivery before txn_end is the completing
			// reply (SCI's intermediate HeadReply is deliberately
			// excluded from the reply checkpoint).
			t.replyDeliverAt = e.At
			t.replySendAt = ref.sentAt
		}
		if ref.wave {
			if ref.level > t.waveDepthAt[e.Dst] {
				t.waveDepthAt[e.Dst] = ref.level
			}
			for len(t.levelAt) < ref.level {
				t.levelAt = append(t.levelAt, 0)
			}
			if e.At > t.levelAt[ref.level-1] {
				t.levelAt[ref.level-1] = e.At
			}
			if e.At > t.lastWaveAt {
				t.lastWaveAt = e.At
			}
		}
		if e.Type == "InvAck" && e.Dir {
			if home, ok := c.homes[e.Block]; ok && e.Dst == home {
				t.homeAcks++
				if e.At > t.lastHomeAck {
					t.lastHomeAck = e.At
				}
			}
		}
	case obs.KindTxnEnd:
		key := txnKey{e.Src, e.Block}
		t := c.open[key]
		if t == nil {
			return
		}
		delete(c.open, key)
		c.finish(t, e.At)
	}
}

func (c *Collector) finish(t *txn, endAt uint64) {
	agg := &c.rep.Reads
	if t.write {
		agg = &c.rep.Writes
	}
	agg.Count++
	agg.TotalCycles += endAt - t.startAt
	agg.Msgs += uint64(t.msgs)
	if agg.PathMsgs == nil {
		agg.PathMsgs = make(map[int]uint64)
	}
	agg.PathMsgs[t.maxDepth]++
	if t.lastDeliverAt > t.startAt {
		agg.PathCycles += t.lastDeliverAt - t.startAt
	}

	cks := [...]uint64{t.startAt, t.reqSendAt, t.reqDeliverAt, t.homeStartAt, t.replySendAt, t.replyDeliverAt, endAt}
	ok := true
	for i := 1; i < len(cks); i++ {
		if i < len(cks)-1 && cks[i] == 0 {
			ok = false
			break
		}
		if cks[i] < cks[i-1] {
			ok = false
			break
		}
	}
	if ok {
		for ph := PhaseIssue; ph < NumPhases; ph++ {
			agg.Phases[ph] += cks[ph+1] - cks[ph]
		}
	} else {
		agg.Unattributed++
	}

	if t.write && t.waveMsgs > 0 {
		w := &c.rep.Wave
		w.Waves++
		w.Msgs += uint64(t.waveMsgs)
		w.Roots += uint64(t.roots)
		w.HomeAcks += uint64(t.homeAcks)
		if w.DepthHist == nil {
			w.DepthHist = make(map[int]uint64)
		}
		w.DepthHist[t.waveMaxDepth]++
		prev := t.waveSendAt
		for l, at := range t.levelAt {
			if at == 0 {
				continue
			}
			for len(w.LevelCycles) <= l {
				w.LevelCycles = append(w.LevelCycles, 0)
				w.LevelCount = append(w.LevelCount, 0)
			}
			if at > prev {
				w.LevelCycles[l] += at - prev
			}
			w.LevelCount[l]++
			prev = at
		}
		if t.roots > 0 && t.homeAcks > (t.roots+1)/2 {
			w.SplitViolations++
		}
		if t.lastHomeAck > t.lastWaveAt {
			w.AckTail += t.lastHomeAck - t.lastWaveAt
		}
	}

	// Drop any refs this transaction still owns (messages that never
	// delivered, e.g. at a truncated run's end).
	for _, id := range t.ids {
		if ref, ok := c.refs[id]; ok && ref.t == t {
			delete(c.refs, id)
		}
	}
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

// CSVHeader is the column list WriteCSVRow emits, prefixed by the
// caller's identifying columns.
func CSVHeader() string {
	var cols []string
	for _, cls := range []string{"read", "write"} {
		cols = append(cols, cls+"_txns", cls+"_unattributed")
		for ph := PhaseIssue; ph < NumPhases; ph++ {
			cols = append(cols, fmt.Sprintf("%s_%s", cls, ph))
		}
		cols = append(cols, cls+"_total", cls+"_path_msgs_mean", cls+"_path_msgs_max", cls+"_path_cycles_mean")
	}
	cols = append(cols, "waves", "wave_msgs", "wave_roots", "wave_home_acks",
		"wave_depth_max", "wave_ack_tail_mean", "split_violations")
	return strings.Join(cols, ",")
}

// CSVRow renders the report as one CSV row matching CSVHeader.
func (r *Report) CSVRow() string {
	var f []string
	for _, a := range []*PhaseAgg{&r.Reads, &r.Writes} {
		f = append(f, fmt.Sprintf("%d", a.Count), fmt.Sprintf("%d", a.Unattributed))
		for ph := PhaseIssue; ph < NumPhases; ph++ {
			f = append(f, fmt.Sprintf("%.2f", a.MeanPhase(ph)))
		}
		pathMean := 0.0
		if a.Count > 0 {
			pathMean = float64(a.PathCycles) / float64(a.Count)
		}
		f = append(f, fmt.Sprintf("%.2f", a.MeanTotal()),
			fmt.Sprintf("%.2f", a.MeanPathMsgs()),
			fmt.Sprintf("%d", a.MaxPathMsgs()),
			fmt.Sprintf("%.2f", pathMean))
	}
	w := &r.Wave
	ackTail := 0.0
	if w.Waves > 0 {
		ackTail = float64(w.AckTail) / float64(w.Waves)
	}
	f = append(f, fmt.Sprintf("%d", w.Waves), fmt.Sprintf("%d", w.Msgs),
		fmt.Sprintf("%d", w.Roots), fmt.Sprintf("%d", w.HomeAcks),
		fmt.Sprintf("%d", w.MaxDepth()), fmt.Sprintf("%.2f", ackTail),
		fmt.Sprintf("%d", w.SplitViolations))
	return strings.Join(f, ",")
}

// WriteTable renders the report as aligned human-readable tables.
func (r *Report) WriteTable(out io.Writer) {
	fmt.Fprintf(out, "phase breakdown (mean cycles per attributed miss):\n")
	fmt.Fprintf(out, "  %-14s %12s %12s\n", "phase", "read", "write")
	for ph := PhaseIssue; ph < NumPhases; ph++ {
		fmt.Fprintf(out, "  %-14s %12.2f %12.2f\n", ph, r.Reads.MeanPhase(ph), r.Writes.MeanPhase(ph))
	}
	fmt.Fprintf(out, "  %-14s %12.2f %12.2f\n", "total", r.Reads.MeanTotal(), r.Writes.MeanTotal())
	fmt.Fprintf(out, "  %-14s %12d %12d\n", "txns", r.Reads.Count, r.Writes.Count)
	fmt.Fprintf(out, "  %-14s %12d %12d\n", "unattributed", r.Reads.Unattributed, r.Writes.Unattributed)

	fmt.Fprintf(out, "critical path (messages): read mean %.2f max %d · write mean %.2f max %d\n",
		r.Reads.MeanPathMsgs(), r.Reads.MaxPathMsgs(), r.Writes.MeanPathMsgs(), r.Writes.MaxPathMsgs())
	writeHist(out, "  read path hist:  ", r.Reads.PathMsgs)
	writeHist(out, "  write path hist: ", r.Writes.PathMsgs)

	w := &r.Wave
	if w.Waves > 0 {
		fmt.Fprintf(out, "invalidation waves: %d (%.2f msgs, %.2f roots, %.2f home acks per wave; max depth %d; %d split violations)\n",
			w.Waves, float64(w.Msgs)/float64(w.Waves), float64(w.Roots)/float64(w.Waves),
			float64(w.HomeAcks)/float64(w.Waves), w.MaxDepth(), w.SplitViolations)
		writeHist(out, "  wave depth hist: ", w.DepthHist)
		for l := range w.LevelCycles {
			if w.LevelCount[l] == 0 {
				continue
			}
			fmt.Fprintf(out, "  level %d: %.2f cycles mean (%d waves)\n",
				l+1, float64(w.LevelCycles[l])/float64(w.LevelCount[l]), w.LevelCount[l])
		}
	}
	if r.OpenTxns > 0 {
		fmt.Fprintf(out, "WARNING: %d transactions never completed (truncated or deadlocked run)\n", r.OpenTxns)
	}
}

// String renders WriteTable to a string.
func (r *Report) String() string {
	var sb strings.Builder
	r.WriteTable(&sb)
	return sb.String()
}

func writeHist(out io.Writer, prefix string, h map[int]uint64) {
	if len(h) == 0 {
		return
	}
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d:%d", k, h[k]))
	}
	fmt.Fprintf(out, "%s%s\n", prefix, strings.Join(parts, " "))
}
