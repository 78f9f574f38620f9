package obs

import (
	"bufio"
	"fmt"
	"io"

	"dircc/internal/stats"
)

// Sampler snapshots Counters deltas every Interval simulated cycles,
// producing a time series of protocol activity: messages and bytes per
// interval, miss rates, invalidation traffic, directory-gate queueing
// depth, and interval-local miss latency.
//
// The sampler is lazy: it holds no scheduled events (a self-renewing
// timer would keep the event queue alive forever and change Quiesce
// semantics). Instead Probe.Tick advances it from the kernel's tick
// hook, emitting one row per elapsed interval — including empty
// intervals, so the series has regular spacing for plotting.
type Sampler struct {
	// Interval is the sampling period in simulated cycles.
	Interval uint64

	ctr  *stats.Counters
	next uint64
	last sampleState
	rows []Row

	// netDelay accumulates network queueing delay (actual minus
	// unloaded latency) over the current interval, fed by Probe.NetSend.
	netDelay uint64
}

// sampleState is the subset of counters the sampler diffs.
type sampleState struct {
	messages, bytes                uint64
	readMisses, writeMisses        uint64
	readHits, writeHits            uint64
	invalidations, invAcks         uint64
	writebacks, directoryBusy      uint64
	rmCount, rmSum, wmCount, wmSum uint64
}

// Row is one sampling interval's deltas.
type Row struct {
	// Cycle is the interval's end time.
	Cycle uint64
	// Deltas over the interval.
	Messages, Bytes         uint64
	ReadMisses, WriteMisses uint64
	ReadHits, WriteHits     uint64
	Invalidations, InvAcks  uint64
	Writebacks              uint64
	// DirectoryBusy is the number of requests that queued behind a
	// busy home gate during the interval — the contention signal.
	DirectoryBusy uint64
	// AvgReadMissCyc / AvgWriteMissCyc are the mean miss latencies of
	// misses completing within the interval (0 when none did).
	AvgReadMissCyc, AvgWriteMissCyc float64
	// NetQueueDelay is the total cycles messages sent this interval
	// spent waiting on busy links and interface ports.
	NetQueueDelay uint64
}

// NewSampler returns a sampler over ctr with the given period. A zero
// or negative interval defaults to 10000 cycles.
func NewSampler(ctr *stats.Counters, interval uint64) *Sampler {
	if interval == 0 {
		interval = 10000
	}
	return &Sampler{Interval: interval, ctr: ctr, next: interval}
}

// Rows returns the sampled series so far.
func (s *Sampler) Rows() []Row { return s.rows }

func (s *Sampler) noteNet(delay uint64) { s.netDelay += delay }

// Advance emits rows for every interval boundary at or before now.
func (s *Sampler) Advance(now uint64) {
	for now >= s.next {
		s.sample(s.next)
		s.next += s.Interval
	}
}

// Flush emits a final partial-interval row ending at now, if anything
// happened after the last boundary. Call once at end of run.
func (s *Sampler) Flush(now uint64) {
	if now >= s.next {
		s.Advance(now)
	}
	cur := s.capture()
	if cur != s.last {
		s.sample(now)
	}
}

func (s *Sampler) capture() sampleState {
	c := s.ctr
	return sampleState{
		messages: c.Messages, bytes: c.Bytes,
		readMisses: c.ReadMisses, writeMisses: c.WriteMisses,
		readHits: c.ReadHits, writeHits: c.WriteHits,
		invalidations: c.Invalidations, invAcks: c.InvAcks,
		writebacks: c.Writebacks, directoryBusy: c.DirectoryBusy,
		rmCount: c.ReadMissCycles.Count, rmSum: c.ReadMissCycles.Sum,
		wmCount: c.WriteMissCyc.Count, wmSum: c.WriteMissCyc.Sum,
	}
}

func (s *Sampler) sample(at uint64) {
	cur := s.capture()
	d := func(a, b uint64) uint64 { return a - b }
	row := Row{
		Cycle:         at,
		Messages:      d(cur.messages, s.last.messages),
		Bytes:         d(cur.bytes, s.last.bytes),
		ReadMisses:    d(cur.readMisses, s.last.readMisses),
		WriteMisses:   d(cur.writeMisses, s.last.writeMisses),
		ReadHits:      d(cur.readHits, s.last.readHits),
		WriteHits:     d(cur.writeHits, s.last.writeHits),
		Invalidations: d(cur.invalidations, s.last.invalidations),
		InvAcks:       d(cur.invAcks, s.last.invAcks),
		Writebacks:    d(cur.writebacks, s.last.writebacks),
		DirectoryBusy: d(cur.directoryBusy, s.last.directoryBusy),
		NetQueueDelay: s.netDelay,
	}
	if n := cur.rmCount - s.last.rmCount; n > 0 {
		row.AvgReadMissCyc = float64(cur.rmSum-s.last.rmSum) / float64(n)
	}
	if n := cur.wmCount - s.last.wmCount; n > 0 {
		row.AvgWriteMissCyc = float64(cur.wmSum-s.last.wmSum) / float64(n)
	}
	s.rows = append(s.rows, row)
	s.last = cur
	s.netDelay = 0
}

// WriteCSV writes the series with a header row.
func (s *Sampler) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "cycle,messages,bytes,read_misses,write_misses,read_hits,write_hits,"+
		"invalidations,inv_acks,writebacks,directory_busy,avg_read_miss_cyc,avg_write_miss_cyc,net_queue_delay")
	for _, r := range s.rows {
		fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.1f,%.1f,%d\n",
			r.Cycle, r.Messages, r.Bytes, r.ReadMisses, r.WriteMisses, r.ReadHits, r.WriteHits,
			r.Invalidations, r.InvAcks, r.Writebacks, r.DirectoryBusy,
			r.AvgReadMissCyc, r.AvgWriteMissCyc, r.NetQueueDelay)
	}
	return bw.Flush()
}
