package coherent

import (
	"fmt"

	"dircc/internal/network"
	"dircc/internal/sim"
)

// Config describes the simulated machine. DefaultConfig reproduces the
// paper's Table 5.
type Config struct {
	// Procs is the number of processing nodes (processor + cache +
	// memory module + network interface). The paper uses 8, 16, 32.
	Procs int

	// CacheBytes is the per-node data cache size (Table 5: 16 KB).
	CacheBytes int
	// BlockBytes is the coherence block size (Table 5: 8 bytes).
	BlockBytes int
	// CacheSets is the number of cache sets; 1 means fully associative
	// (Table 5: fully associative).
	CacheSets int

	// MemLatency is the home memory module access time (Table 5: 5).
	MemLatency sim.Time
	// CacheLatency is the cache access time (Table 5: 1).
	CacheLatency sim.Time

	// Net carries the interconnect parameters (Table 5: 8-bit links,
	// 1-cycle switch/wire delay).
	Net network.Config

	// HeaderBytes is the size of a control message (routing + type +
	// block address + transaction bookkeeping).
	HeaderBytes int
	// PtrBytes is the wire size of one piggybacked node pointer.
	PtrBytes int

	// BarrierOverhead is the cost of a barrier release beyond waiting
	// for the last arrival (engine-level synchronization; see DESIGN.md
	// §6 on the Proteus substitution).
	BarrierOverhead sim.Time
	// LockOverhead is the cost of one lock acquire/transfer (and the
	// spin back-off granularity when MemLocks is set).
	LockOverhead sim.Time

	// WriteBuffer, when positive, relaxes the paper's strong
	// consistency model to a TSO-style one: each processor retires
	// stores into a buffer of this depth and continues, loads forward
	// from the buffer, and synchronization operations (locks, barriers,
	// atomics) drain it. Zero keeps the paper's blocking writes.
	WriteBuffer int

	// HomePageBlocks selects the home-mapping granularity: 0 or 1
	// interleaves individual blocks across the nodes (the default);
	// larger values interleave pages of that many consecutive blocks,
	// trading hot-spot spreading for spatial locality at the home.
	HomePageBlocks int

	// MemLocks routes Env.Lock/Unlock through shared memory as ticket
	// locks (atomic fetch-add + spin on the now-serving word), so
	// synchronization traffic flows through the coherence protocol
	// instead of the engine-level queue model. Costs more simulated
	// time and shows protocol-dependent lock behavior.
	MemLocks bool

	// Check enables the coherence monitor (used by tests; adds O(n)
	// scans per write-miss completion).
	Check bool

	// MaxEvents aborts runaway simulations; 0 means unlimited.
	MaxEvents uint64
}

// DefaultConfig returns the paper's Table 5 machine with the given
// number of processors.
func DefaultConfig(procs int) Config {
	return Config{
		Procs:           procs,
		CacheBytes:      16 * 1024,
		BlockBytes:      8,
		CacheSets:       1,
		MemLatency:      5,
		CacheLatency:    1,
		Net:             network.DefaultConfig(),
		HeaderBytes:     8,
		PtrBytes:        4,
		BarrierOverhead: 40,
		LockOverhead:    20,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("coherent: Procs must be >= 1, got %d", c.Procs)
	}
	if c.BlockBytes < 1 {
		return fmt.Errorf("coherent: BlockBytes must be >= 1, got %d", c.BlockBytes)
	}
	if c.CacheBytes < c.BlockBytes {
		return fmt.Errorf("coherent: CacheBytes %d smaller than one block (%d)", c.CacheBytes, c.BlockBytes)
	}
	if c.CacheSets < 1 || c.CacheSets&(c.CacheSets-1) != 0 {
		return fmt.Errorf("coherent: CacheSets must be a power of two >= 1, got %d", c.CacheSets)
	}
	lines := c.CacheBytes / c.BlockBytes
	if lines%c.CacheSets != 0 {
		return fmt.Errorf("coherent: %d lines do not divide into %d sets", lines, c.CacheSets)
	}
	if c.MemLatency < 1 || c.CacheLatency < 1 {
		return fmt.Errorf("coherent: latencies must be >= 1")
	}
	if c.HeaderBytes < 1 || c.PtrBytes < 1 {
		return fmt.Errorf("coherent: message size parameters must be >= 1")
	}
	if c.HomePageBlocks < 0 {
		return fmt.Errorf("coherent: HomePageBlocks must be >= 0, got %d", c.HomePageBlocks)
	}
	if c.WriteBuffer < 0 {
		return fmt.Errorf("coherent: WriteBuffer must be >= 0, got %d", c.WriteBuffer)
	}
	return nil
}

// CacheLines returns the number of line frames per node.
func (c Config) CacheLines() int { return c.CacheBytes / c.BlockBytes }

// CacheAssoc returns the ways per set.
func (c Config) CacheAssoc() int { return c.CacheLines() / c.CacheSets }

// PointerBits returns the width of a directory pointer naming one of
// Procs nodes, ⌈log2 Procs⌉ bits and at least 1: the log n of the
// directory-size formulas behind each engine's DirectoryBits.
func (c Config) PointerBits() int64 {
	l := int64(1)
	for 1<<l < c.Procs {
		l++
	}
	return l
}
