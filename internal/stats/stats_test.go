package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.CountMsg("ReadReq", 8, 3)
	c.CountMsg("DataReply", 16, 3)
	c.CountMsg("ReadReq", 8, 1)
	if c.Messages != 3 || c.Bytes != 32 || c.HopsSum != 7 {
		t.Fatalf("msg accounting wrong: %+v", c)
	}
	if c.MsgByType["ReadReq"] != 2 || c.MsgByType["DataReply"] != 1 {
		t.Fatalf("per-type counts wrong: %v", c.MsgByType)
	}
}

func TestCountMsgNilMap(t *testing.T) {
	var c Counters // zero value, no map
	c.CountMsg("Inv", 8, 2)
	if c.MsgByType["Inv"] != 1 {
		t.Fatal("CountMsg on zero-value Counters lost the type count")
	}
}

func TestMissRatio(t *testing.T) {
	c := NewCounters()
	if c.MissRatio() != 0 {
		t.Fatal("empty counters should have ratio 0")
	}
	c.Reads, c.Writes = 60, 40
	c.ReadMisses, c.WriteMisses = 6, 4
	if got := c.MissRatio(); got != 0.1 {
		t.Fatalf("MissRatio() = %v, want 0.1", got)
	}
}

func TestMessagesPerMiss(t *testing.T) {
	c := NewCounters()
	if c.MessagesPerMiss() != 0 {
		t.Fatal("no misses should yield 0")
	}
	c.ReadMisses = 5
	c.Messages = 10
	if got := c.MessagesPerMiss(); got != 2 {
		t.Fatalf("MessagesPerMiss() = %v, want 2", got)
	}
}

func TestAdd(t *testing.T) {
	a := NewCounters()
	b := NewCounters()
	a.Reads, b.Reads = 3, 4
	a.CountMsg("Inv", 8, 1)
	b.CountMsg("Inv", 8, 2)
	b.CountMsg("Ack", 8, 2)
	a.ReadMissCycles.Observe(10)
	b.ReadMissCycles.Observe(20)
	a.Add(b)
	if a.Reads != 7 {
		t.Fatalf("Reads = %d, want 7", a.Reads)
	}
	if a.MsgByType["Inv"] != 2 || a.MsgByType["Ack"] != 1 {
		t.Fatalf("merged type map wrong: %v", a.MsgByType)
	}
	if a.ReadMissCycles.Count != 2 || a.ReadMissCycles.Sum != 30 {
		t.Fatalf("merged histogram wrong: %+v", a.ReadMissCycles)
	}
	a.Add(nil) // must not panic
}

func TestAddIntoZeroValue(t *testing.T) {
	var a Counters
	b := NewCounters()
	b.CountMsg("X", 1, 1)
	a.Add(b)
	if a.MsgByType["X"] != 1 {
		t.Fatal("Add into zero-value Counters lost map contents")
	}
}

func TestStringMentionsKeyFields(t *testing.T) {
	c := NewCounters()
	c.Cycles = 123456
	c.CountMsg("Inv", 8, 1)
	s := c.String()
	for _, want := range []string{"123456", "Inv", "miss ratio"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestHistogramMeanMax(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should be zero")
	}
	for _, v := range []uint64{0, 1, 2, 3, 100} {
		h.Observe(v)
	}
	if h.Count != 5 || h.Sum != 106 {
		t.Fatalf("histogram count/sum wrong: %+v", h)
	}
	if h.Max() != 100 {
		t.Fatalf("Max() = %d, want 100", h.Max())
	}
	if got := h.Mean(); got != 106.0/5 {
		t.Fatalf("Mean() = %v", got)
	}
}

// TestHistogramMerge checks that Merge adds buckets, counts and sums and
// keeps the larger maximum.
func TestHistogramMerge(t *testing.T) {
	var h, m Histogram
	for _, v := range []uint64{0, 1, 2, 3, 1000, 1 << 20} {
		h.Observe(v)
	}
	m.Observe(5)
	m.Merge(&h)
	m.Merge(&h)
	if m.Count != 13 || m.Sum != 2*h.Sum+5 || m.MaxV != 1<<20 {
		t.Fatalf("merged count=%d sum=%d max=%d, want 13, %d, %d", m.Count, m.Sum, m.MaxV, 2*h.Sum+5, 1<<20)
	}
	for i, n := range m.Buckets {
		want := 2 * h.Buckets[i]
		if i == bucketOf(5) {
			want++
		}
		if n != want {
			t.Fatalf("bucket %d holds %d, want %d", i, n, want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	for i := 0; i < 100; i++ {
		h.Observe(uint64(i))
	}
	med := h.Quantile(0.5)
	if med < 32 || med > 127 {
		t.Fatalf("median bound %d outside plausible bucket range", med)
	}
	if h.Quantile(1.0) < h.Quantile(0.5) {
		t.Fatal("quantiles must be monotone")
	}
}

// TestHistogramTopBucket observes samples at and above 2^62, where a
// power-of-two bucket index would run past the 64 buckets: the top
// bucket takes them all, and a quantile that lands there reports the
// largest sample.
func TestHistogramTopBucket(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1 << 62, 1 << 63, math.MaxUint64} {
		h.Observe(v)
	}
	top := len(h.Buckets) - 1
	if h.Buckets[top] != 3 || h.Count != 3 {
		t.Fatalf("top bucket holds %d of %d samples, want all 3", h.Buckets[top], h.Count)
	}
	if got := h.Quantile(0.1); got != math.MaxUint64 {
		t.Fatalf("Quantile(0.1) = %d, want MaxV %d", got, uint64(math.MaxUint64))
	}
	h = Histogram{}
	h.Observe(1<<62 - 1)
	h.Observe(1 << 62)
	if h.Buckets[top-1] != 1 || h.Buckets[top] != 1 {
		t.Fatalf("2^62-1 and 2^62 land in buckets %d and %d, want %d and %d",
			bucketOf(1<<62-1), bucketOf(1<<62), top-1, top)
	}
	if got := h.Quantile(1); got != 1<<62 {
		t.Fatalf("Quantile(1) = %d, want MaxV %d", got, uint64(1<<62))
	}
}

// Property: histogram sum/count always match direct accumulation, and
// every sample lands in exactly one bucket.
func TestQuickHistogram(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Histogram
		var sum uint64
		for _, v := range vals {
			h.Observe(uint64(v))
			sum += uint64(v)
		}
		var bucketTotal uint64
		for _, b := range h.Buckets {
			bucketTotal += b
		}
		return h.Count == uint64(len(vals)) && h.Sum == sum && bucketTotal == h.Count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketOfBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1 << 40, 41}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}
