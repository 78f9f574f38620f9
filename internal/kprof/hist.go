package kprof

import "math/bits"

// Hist is a fixed 64-bucket power-of-two histogram: bucket i counts
// observations v with bit-length i (bucket 0 holds v==0). Fixed-size
// so it embeds in Profile without allocation and copies by
// assignment.
type Hist struct {
	Buckets [64]uint64 `json:"-"`
	Count   uint64     `json:"count"`
	Sum     uint64     `json:"sum"`
	MaxV    uint64     `json:"max"`
}

// Observe adds one observation.
func (h *Hist) Observe(v uint64) {
	h.Buckets[bits.Len64(v)&63]++
	h.Count++
	h.Sum += v
	if v > h.MaxV {
		h.MaxV = v
	}
}

// Mean returns the mean observation, or 0 for an empty histogram.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) from
// the power-of-two buckets: the top edge of the bucket holding the
// q·Count-th observation. Coarse by design — good enough to tell a
// 1µs stall from a 1ms one.
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(q * float64(h.Count))
	if target >= h.Count {
		target = h.Count - 1
	}
	var seen uint64
	for i, c := range h.Buckets {
		seen += c
		if seen > target {
			if i == 0 {
				return 0
			}
			edge := uint64(1)<<uint(i) - 1 // top value with bit-length i
			if edge > h.MaxV {
				edge = h.MaxV
			}
			return edge
		}
	}
	return h.MaxV
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if o.MaxV > h.MaxV {
		h.MaxV = o.MaxV
	}
}
