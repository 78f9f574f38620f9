package kprof

import "dircc/internal/stats"

// Hist is the power-of-two histogram a profile keeps its per-wave
// distributions in: the simulator's latency histogram, fixed-size, so it
// embeds in Profile without allocation and copies by assignment.
type Hist = stats.Histogram
