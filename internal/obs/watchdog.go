package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Watchdog detects simulations that have stopped making progress and
// dumps enough machine state to diagnose why. Two triggers:
//
//   - stall: no processor has retired an operation (hit or miss
//     completion) for Stall simulated cycles while events keep firing —
//     the livelock signature (e.g. a spinning ticket lock whose holder
//     is wedged);
//   - drain: the event queue emptied with transactions still
//     outstanding or messages in flight — the deadlock signature (a
//     lost ack, a gate never released). The machine reports this from
//     Quiesce via FireDrain.
//
// Like the sampler, the watchdog schedules nothing: the machine reports
// each retired operation to it (Progress), and the kernel's tick hook
// checks it before every event (Probe.Tick), so an enabled watchdog
// cannot change simulated results.
type Watchdog struct {
	// Stall is the progress-free cycle budget before firing (0
	// disables the stall check; drain reporting still works).
	Stall uint64
	// Out receives the diagnostic report.
	Out io.Writer
	// Dump, when non-nil, is invoked after the report header to print
	// machine state (outstanding transactions, busy gates, directory
	// entries). The machine wires this to avoid an import cycle.
	Dump func(w io.Writer)
	// TopK bounds the hottest-blocks table (default 10).
	TopK int
	// JSON switches the report from the human-readable text form to a
	// single machine-readable JSON object per firing (see Report), for
	// CI gates that parse watchdog output.
	JSON bool

	lastProgress uint64
	fired        bool
	drained      bool
	invCount     map[uint64]uint64
}

// NewWatchdog returns a watchdog writing to out that fires after
// stall progress-free cycles.
func NewWatchdog(stall uint64, out io.Writer) *Watchdog {
	return &Watchdog{Stall: stall, Out: out, invCount: make(map[uint64]uint64)}
}

// Progress records that a processor retired an operation at now. A
// cycle no later than the last one recorded changes nothing, so a
// stall report that already fired is re-armed only by later progress.
func (w *Watchdog) Progress(now uint64) {
	if now <= w.lastProgress {
		return
	}
	w.lastProgress = now
	w.fired = false
}

// NoteInv counts an invalidation-type message on block, feeding the
// hottest-blocks table. The machine calls it for every Inv, Update and
// ReplaceInv it injects into the network.
func (w *Watchdog) NoteInv(block uint64) {
	if w.invCount == nil {
		w.invCount = make(map[uint64]uint64)
	}
	w.invCount[block]++
}

// Stalled reports whether the stall trigger has fired.
func (w *Watchdog) Stalled() bool { return w.fired }

// Drained reports whether the drain trigger has fired.
func (w *Watchdog) Drained() bool { return w.drained }

// Check fires the stall report once per progress-free episode.
func (w *Watchdog) Check(now uint64) {
	if w.Stall == 0 || w.fired || now < w.lastProgress+w.Stall {
		return
	}
	w.fired = true
	w.report("stall", now, fmt.Sprintf("no processor retired an operation for %d cycles (last progress at %d, now %d)",
		now-w.lastProgress, w.lastProgress, now))
}

// FireDrain reports a drained event queue with outstanding work.
func (w *Watchdog) FireDrain(now uint64, reason string) {
	if w.drained {
		return
	}
	w.drained = true
	w.report("drain", now, fmt.Sprintf("event queue drained at cycle %d with outstanding work: %s", now, reason))
}

// Report is the machine-readable form of one watchdog firing, emitted
// as a single JSON line when the JSON field is set. CI jobs grep the
// output for `"kind":"stall"` / `"kind":"drain"` or parse the whole
// object; the free-form machine dump is captured into MachineDump so
// the JSON stays one line per firing.
type Report struct {
	Kind         string       `json:"kind"` // "stall" or "drain"
	Headline     string       `json:"headline"`
	Now          uint64       `json:"now"`
	LastProgress uint64       `json:"last_progress"`
	HotBlocks    []BlockCount `json:"hot_blocks,omitempty"`
	MachineDump  string       `json:"machine_dump,omitempty"`
}

func (w *Watchdog) report(kind string, now uint64, headline string) {
	out := w.Out
	if out == nil {
		return
	}
	topK := w.TopK
	if topK <= 0 {
		topK = 10
	}
	hot := topBlocks(w.invCount, topK)
	if w.JSON {
		r := Report{Kind: kind, Headline: headline, Now: now, LastProgress: w.lastProgress,
			HotBlocks: hot}
		if w.Dump != nil {
			var sb strings.Builder
			w.Dump(&sb)
			r.MachineDump = sb.String()
		}
		if b, err := json.Marshal(r); err == nil {
			fmt.Fprintf(out, "%s\n", b)
		}
		return
	}
	fmt.Fprintf(out, "\n=== watchdog: %s ===\n", headline)
	if len(hot) > 0 {
		fmt.Fprintf(out, "hottest blocks by invalidation count:\n")
		for _, h := range hot {
			fmt.Fprintf(out, "  block %-8d %d invalidations\n", h.Block, h.Count)
		}
	}
	if w.Dump != nil {
		w.Dump(out)
	}
	fmt.Fprintf(out, "=== end watchdog report ===\n")
}
