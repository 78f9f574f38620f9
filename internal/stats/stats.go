// Package stats collects and formats simulation statistics.
//
// Counters are plain uint64 fields incremented by the machine, network
// and protocol engines; they are cheap enough to leave enabled in every
// run. A Histogram records latency distributions with power-of-two
// buckets.
package stats

import (
	"fmt"
	"math/bits"
	"strings"
)

// Counters aggregates everything a single simulation run measures.
type Counters struct {
	// Cycles is the total simulated execution time (max over processors).
	Cycles uint64

	// Processor-side reference counts.
	Reads, Writes           uint64
	ReadHits, WriteHits     uint64
	ReadMisses, WriteMisses uint64

	// Network traffic.
	Messages uint64
	Bytes    uint64
	HopsSum  uint64

	// Protocol actions.
	Invalidations  uint64 // Inv messages sent (write-miss driven)
	ReplaceInvs    uint64 // Replace_INV messages (replacement driven)
	InvAcks        uint64
	Writebacks     uint64
	Replacements   uint64 // cache lines evicted while valid/exclusive
	Broadcasts     uint64 // Dir_iB broadcast invalidation rounds
	PointerEvicts  uint64 // Dir_iNB overflow evictions
	TreeMerges     uint64 // Dir_iTree_k case-3 merges (two equal-level trees)
	TreeAdoptions  uint64 // Dir_iTree_k case-4 single-child adoptions
	DirectoryBusy  uint64 // requests queued behind a transient home state
	BarrierEpochs  uint64
	LockAcquires   uint64
	ComputeCycles  uint64
	MsgByType      map[string]uint64
	ReadMissCycles Histogram // latency of each read miss, issue to completion
	WriteMissCyc   Histogram // latency of each write miss
}

// NewCounters returns zeroed counters with the message-type map ready.
func NewCounters() *Counters {
	return &Counters{MsgByType: make(map[string]uint64)}
}

// CountMsg records one message of the given type, size and hop count.
func (c *Counters) CountMsg(typ string, bytes, hops int) {
	c.Messages++
	c.Bytes += uint64(bytes)
	c.HopsSum += uint64(hops)
	if c.MsgByType == nil {
		c.MsgByType = make(map[string]uint64)
	}
	c.MsgByType[typ]++
}

// MissRatio returns misses/references, or 0 for an idle run.
func (c *Counters) MissRatio() float64 {
	refs := c.Reads + c.Writes
	if refs == 0 {
		return 0
	}
	return float64(c.ReadMisses+c.WriteMisses) / float64(refs)
}

// AvgReadMissLatency returns the mean read-miss latency in cycles.
func (c *Counters) AvgReadMissLatency() float64 { return c.ReadMissCycles.Mean() }

// AvgWriteMissLatency returns the mean write-miss latency in cycles.
func (c *Counters) AvgWriteMissLatency() float64 { return c.WriteMissCyc.Mean() }

// MessagesPerMiss returns total messages divided by total misses.
func (c *Counters) MessagesPerMiss() float64 {
	m := c.ReadMisses + c.WriteMisses
	if m == 0 {
		return 0
	}
	return float64(c.Messages) / float64(m)
}

// String renders a human-readable multi-line summary.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles            %12d\n", c.Cycles)
	fmt.Fprintf(&b, "reads/writes      %12d / %d\n", c.Reads, c.Writes)
	fmt.Fprintf(&b, "read misses       %12d (hits %d)\n", c.ReadMisses, c.ReadHits)
	fmt.Fprintf(&b, "write misses      %12d (hits %d)\n", c.WriteMisses, c.WriteHits)
	fmt.Fprintf(&b, "miss ratio        %12.4f\n", c.MissRatio())
	fmt.Fprintf(&b, "messages          %12d (%d bytes, %.2f avg hops)\n",
		c.Messages, c.Bytes, safeDiv(c.HopsSum, c.Messages))
	fmt.Fprintf(&b, "invalidations     %12d (+%d replace-inv, %d acks)\n",
		c.Invalidations, c.ReplaceInvs, c.InvAcks)
	fmt.Fprintf(&b, "writebacks        %12d, replacements %d\n", c.Writebacks, c.Replacements)
	fmt.Fprintf(&b, "avg miss latency  %12.1f read / %.1f write\n",
		c.AvgReadMissLatency(), c.AvgWriteMissLatency())
	if len(c.MsgByType) > 0 {
		types := c.SortedMsgTypes()
		fmt.Fprintf(&b, "messages by type:\n")
		for _, t := range types {
			fmt.Fprintf(&b, "  %-12s %12d\n", t, c.MsgByType[t])
		}
	}
	return b.String()
}

func safeDiv(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Add accumulates other into c (histograms and maps included).
func (c *Counters) Add(other *Counters) {
	if other == nil {
		return
	}
	c.Cycles += other.Cycles
	c.Reads += other.Reads
	c.Writes += other.Writes
	c.ReadHits += other.ReadHits
	c.WriteHits += other.WriteHits
	c.ReadMisses += other.ReadMisses
	c.WriteMisses += other.WriteMisses
	c.Messages += other.Messages
	c.Bytes += other.Bytes
	c.HopsSum += other.HopsSum
	c.Invalidations += other.Invalidations
	c.ReplaceInvs += other.ReplaceInvs
	c.InvAcks += other.InvAcks
	c.Writebacks += other.Writebacks
	c.Replacements += other.Replacements
	c.Broadcasts += other.Broadcasts
	c.PointerEvicts += other.PointerEvicts
	c.TreeMerges += other.TreeMerges
	c.TreeAdoptions += other.TreeAdoptions
	c.DirectoryBusy += other.DirectoryBusy
	c.BarrierEpochs += other.BarrierEpochs
	c.LockAcquires += other.LockAcquires
	c.ComputeCycles += other.ComputeCycles
	for k, v := range other.MsgByType {
		if c.MsgByType == nil {
			c.MsgByType = make(map[string]uint64)
		}
		c.MsgByType[k] += v
	}
	c.ReadMissCycles.Merge(&other.ReadMissCycles)
	c.WriteMissCyc.Merge(&other.WriteMissCyc)
}

// Histogram is a power-of-two bucketed latency histogram: bucket i
// counts samples v with 2^(i-1) <= v < 2^i (bucket 0 counts v == 0),
// and the top bucket every v >= 2^62.
type Histogram struct {
	Buckets [64]uint64
	Count   uint64
	Sum     uint64
	MaxV    uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.Buckets[bucketOf(v)]++
	h.Count++
	h.Sum += v
	if v > h.MaxV {
		h.MaxV = v
	}
}

func bucketOf(v uint64) int {
	return min(bits.Len64(v), len(Histogram{}.Buckets)-1)
}

// Mean returns the average of observed samples, or 0 if none.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Max returns the largest observed sample.
func (h *Histogram) Max() uint64 { return h.MaxV }

// Merge accumulates other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Count += other.Count
	h.Sum += other.Sum
	if other.MaxV > h.MaxV {
		h.MaxV = other.MaxV
	}
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) using
// bucket upper edges, MaxV being the top bucket's; returns 0 when
// empty.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.Count == 0 || q <= 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if cum >= target {
			if i == len(h.Buckets)-1 {
				return h.MaxV
			}
			return (uint64(1) << uint(i)) - 1
		}
	}
	return h.MaxV
}
