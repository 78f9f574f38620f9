package check

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"dircc/internal/cache"
	"dircc/internal/coherent"
	"dircc/internal/sim"
)

// replayer drives one machine along explored paths. Run keeps a single
// replayer and, before every transition, resets its machine with a
// fresh engine and replays the path from the initial state; all
// machine code is deterministic, so equal paths yield equal states.
type replayer struct {
	cfg *Config
	m   *coherent.Machine
	// pool holds the sent-but-undelivered message records, in send
	// order: the send hook appends each, and the checker owns delivery
	// order, handing a record back with Machine.Deliver.
	pool    []*coherent.Msg
	cursors []int

	// buf holds the canonical rendering, reused from state to state.
	buf bytes.Buffer
	// chans counts messages per (src, dst) channel, indexed by
	// channel; flight and spans hold the in-flight lines while canon
	// sorts them. All are scratch kept across states.
	chans  []int
	flight []byte
	spans  [][2]int
}

// drainBudget bounds the kernel events of one replayed path; exhausting
// it is reported as a livelock violation.
const drainBudget = 1 << 20

func newReplayer(cfg *Config) (*replayer, error) {
	mc := coherent.DefaultConfig(cfg.Procs)
	mc.CacheBytes = mc.BlockBytes * cfg.CacheLines
	mc.CacheSets = 1
	mc.Check = true
	mc.MaxEvents = drainBudget
	m, err := coherent.NewMachine(mc, cfg.NewEngine())
	if err != nil {
		return nil, fmt.Errorf("check: %s: %w", cfg.Name, err)
	}
	r := &replayer{
		cfg:     cfg,
		m:       m,
		cursors: make([]int, len(cfg.Program)),
		chans:   make([]int, cfg.Procs*cfg.Procs),
	}
	m.SetSendHook(func(msg *coherent.Msg) { r.pool = append(r.pool, msg) })
	if cfg.LaneAudit {
		m.EnableLaneAudit()
	}
	return r, nil
}

// replay returns the machine to the initial state, bound to a fresh
// engine, and replays path on it. Paths are only enqueued after their
// states passed all checks, so a replay never faults. The records of
// the messages the previous path left undelivered go back to the
// machine, which reuses them.
func (r *replayer) replay(path []choice) error {
	for _, msg := range r.pool {
		r.m.Discard(msg)
	}
	clear(r.pool)
	r.pool = r.pool[:0]
	r.m.Reset(r.cfg.NewEngine())
	clear(r.cursors)
	for _, c := range path {
		if verr := r.applyChecked(c); verr != nil {
			return fmt.Errorf("check: %s: replay diverged: %v", r.cfg.Name, verr)
		}
	}
	return nil
}

// entry is the frontier entry for the state the machine stands at,
// reached by path: its enabled choices and, when there are none, its
// terminal verdict.
func (r *replayer) entry(path []choice) queued {
	q := queued{path: path, choices: r.choices()}
	if len(q.choices) == 0 {
		q.terminal = r.checkTerminal()
	}
	return q
}

// checkInvariants asserts the drained-state invariants
// (coherent.Machine.CheckDrained) with the undelivered messages as the
// in-flight set.
func (r *replayer) checkInvariants() error {
	return r.m.CheckDrained(r.cfg.Blocks, r.pool)
}

// checkTerminal asserts the quiescence contract on a state with no
// enabled choices: every node finished its program (an unfinished node
// with no deliverable message is deadlocked), and the machine is
// quiescent (coherent.Machine.CheckQuiescent).
func (r *replayer) checkTerminal() error {
	for n := range r.cfg.Program {
		if r.cursors[n] < len(r.cfg.Program[n]) {
			return fmt.Errorf("deadlock: node %d stuck before %q with nothing in flight",
				n, r.cfg.Program[n][r.cursors[n]])
		}
	}
	return r.m.CheckQuiescent(r.cfg.Blocks)
}

// channel indexes msg's (src, dst) channel in chans.
func (r *replayer) channel(msg *coherent.Msg) int {
	return int(msg.Src)*r.cfg.Procs + int(msg.Dst)
}

func (r *replayer) addr(b coherent.BlockID) uint64 {
	return uint64(b) * uint64(r.m.Cfg.BlockBytes)
}

// choices enumerates the enabled transitions: each node that is idle
// and has program left may issue, and the head message of each
// (src, dst) channel may be delivered. The network model preserves
// send order between every node pair (see TestQuickPerPairFIFO), and
// the protocols rely on it — the tree teardown's tombstone scheme, for
// one, assumes a Replace_INV precedes any later wave on the same edge
// — so the checker explores arbitrary interleavings across channels
// but never reorders within one.
func (r *replayer) choices() []choice {
	var out []choice
	for n := range r.cfg.Program {
		if r.cursors[n] < len(r.cfg.Program[n]) && r.m.Outstanding(coherent.NodeID(n)) == 0 {
			out = append(out, choice{issue: int32(n), deliver: -1})
		}
	}
	clear(r.chans)
	for i, msg := range r.pool {
		ch := r.channel(msg)
		if r.chans[ch] > 0 {
			continue
		}
		r.chans[ch]++
		out = append(out, choice{issue: -1, deliver: int32(i)})
	}
	return out
}

// describe renders c against the current (pre-apply) state.
func (r *replayer) describe(c choice) string {
	if c.issue >= 0 {
		return fmt.Sprintf("node %d issues %s", c.issue, r.cfg.Program[c.issue][r.cursors[c.issue]])
	}
	return "deliver " + r.pool[c.deliver].Canon()
}

// applyChecked performs one choice and drains the kernel, converting
// panics (broken-invariant assertions inside the machine or engine)
// and event-budget exhaustion (livelock) into violations.
func (r *replayer) applyChecked(c choice) (verr error) {
	defer func() {
		if p := recover(); p != nil {
			verr = fmt.Errorf("panic: %v", p)
		}
	}()
	var before []string
	if r.cfg.LaneAudit {
		before = r.laneSnapshot()
		r.m.LaneAuditReset()
	}
	if c.issue >= 0 {
		n := coherent.NodeID(c.issue)
		op := r.cfg.Program[c.issue][r.cursors[c.issue]]
		r.cursors[c.issue]++
		switch op.Kind {
		case OpRead:
			r.m.Access(n, r.addr(op.Block), false, 0, func(uint64) {})
		case OpWrite:
			r.m.Access(n, r.addr(op.Block), true, op.Value, func(uint64) {})
		case OpReplace:
			r.m.ReplaceBlock(n, op.Block)
		}
	} else {
		msg := r.pool[c.deliver]
		r.pool = append(r.pool[:c.deliver], r.pool[c.deliver+1:]...)
		r.m.Deliver(msg)
	}
	if err := r.m.RunKernel(); err != nil {
		if errors.Is(err, sim.ErrEventBudget) {
			return fmt.Errorf("livelock: %d kernel events without quiescing", drainBudget)
		}
		return err
	}
	if r.cfg.LaneAudit {
		after := r.laneSnapshot()
		for n := range after {
			if after[n] != before[n] && !r.m.LaneAuditRan(coherent.NodeID(n)) {
				return fmt.Errorf("lane-partition: node %d's state changed with no event on its lane (%q -> %q)",
					n, before[n], after[n])
			}
		}
	}
	return nil
}

// laneSnapshot renders each node's cache-resident state for the
// program's blocks — the state the lane-partition audit guards. Only
// state a foreign lane could corrupt matters here: line states, values
// and protocol metadata; LRU order is excluded (it is touched only by
// the owner's processor-side entry points).
func (r *replayer) laneSnapshot() []string {
	out := make([]string, len(r.m.Nodes))
	var b []byte
	for n := range r.m.Nodes {
		b = b[:0]
		for blk := 0; blk < r.cfg.Blocks; blk++ {
			ln := r.m.Nodes[n].Cache.Lookup(coherent.BlockID(blk))
			if ln == nil || ln.State == cache.Invalid {
				continue
			}
			b = append(b, 'b')
			b = strconv.AppendInt(b, int64(blk), 10)
			b = append(b, ' ')
			b = append(b, ln.State.String()...)
			b = append(b, ' ')
			b = strconv.AppendUint(b, ln.Val, 10)
			b = append(b, ' ')
			if ln.Meta == nil {
				b = append(b, "<nil>"...)
			} else {
				b = ln.Meta.(coherent.CanonAppender).AppendCanon(b)
			}
			b = append(b, ';')
		}
		out[n] = string(b)
	}
	return out
}

// stateKey identifies a state in the visited set: the first 128 bits
// of the SHA-256 of its canonical text. Half the digest halves the
// visited set, a run's largest structure; even among 8,000,000 states,
// the largest MaxStates in Grid(), the chance that two share a key is
// below 10^-25.
type stateKey [16]byte

// hash digests the canonical state for the visited set.
func (r *replayer) hash() stateKey {
	sum := sha256.Sum256(r.canon())
	return stateKey(sum[:16])
}

// canon renders everything that can influence future behavior and
// returns the text, valid until the next call: the program counters,
// the machine (caches, transactions, gates, store, engine state), and
// the undelivered messages grouped into their FIFO channels — order
// within a channel is behavior (delivery respects it), order across
// channels is not (any interleaving is explored), so channel lines are
// sorted and their contents are not. The same text serves the visited
// set and the tests that compare states.
//
//dirccvet:hotpath
func (r *replayer) canon() []byte {
	r.buf.Reset()
	b := append(r.buf.AvailableBuffer(), "pc["...)
	for i, pc := range r.cursors {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(pc), 10)
	}
	r.buf.Write(append(b, "]\n"...))
	r.m.CanonState(&r.buf)
	r.buf.Write(r.appendInFlight(r.buf.AvailableBuffer()))
	return r.buf.Bytes()
}

// appendInFlight appends one "in-flight ch<src>><dst>#<nnn> <msg>"
// line per undelivered message, nnn numbering the message within its
// channel, with the lines sorted.
//
//dirccvet:hotpath
func (r *replayer) appendInFlight(b []byte) []byte {
	clear(r.chans)
	f := r.flight[:0]
	r.spans = r.spans[:0]
	for _, msg := range r.pool {
		start := len(f)
		f = append(f, "ch"...)
		f = strconv.AppendInt(f, int64(msg.Src), 10)
		f = append(f, '>')
		f = strconv.AppendInt(f, int64(msg.Dst), 10)
		f = append(f, '#')
		seq := &r.chans[r.channel(msg)]
		if *seq < 100 {
			f = append(f, '0')
		}
		if *seq < 10 {
			f = append(f, '0')
		}
		f = strconv.AppendInt(f, int64(*seq), 10)
		*seq++
		f = append(f, ' ')
		f = msg.AppendCanon(f)
		r.spans = append(r.spans, [2]int{start, len(f)})
	}
	r.flight = f
	slices.SortFunc(r.spans, func(x, y [2]int) int {
		return bytes.Compare(f[x[0]:x[1]], f[y[0]:y[1]])
	})
	for _, sp := range r.spans {
		b = append(b, "in-flight "...)
		b = append(b, f[sp[0]:sp[1]]...)
		b = append(b, '\n')
	}
	return b
}
