package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KindSend is a coherence message entering the network.
	KindSend Kind = iota
	// KindDeliver is that message arriving at its destination.
	KindDeliver
	// KindTxnStart is a processor miss transaction being issued.
	KindTxnStart
	// KindTxnEnd is that transaction completing (line installed).
	KindTxnEnd
	// KindCacheState is a cache-line state transition.
	KindCacheState
	// KindDirState is a directory transition at the home.
	KindDirState
	// KindGateWait is a request queuing behind a busy home gate.
	KindGateWait
	// KindHomeStart is the home beginning to process a gated request.
	KindHomeStart
)

var kindNames = [...]string{
	"send", "deliver", "txn_start", "txn_end",
	"cache_state", "dir_state", "gate_wait", "home_start",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one structured protocol event, stamped with simulated time.
type Event struct {
	At    uint64 `json:"at"`
	Kind  Kind   `json:"-"`
	Type  string `json:"type,omitempty"`  // message type name
	Label string `json:"label,omitempty"` // state-transition label
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Block uint64 `json:"block"`
	Req   int    `json:"req,omitempty"`
	// ID links a send to its deliver (unique per message, from 1).
	ID int64 `json:"id,omitempty"`
	// Wave numbers the invalidation wave on Block this Inv/Update
	// belongs to (serialized by the home gate; see Probe.Finalize).
	Wave  int  `json:"wave,omitempty"`
	Write bool `json:"write,omitempty"`
	// Dir marks directory-bound messages: acks and requests addressed
	// to the home's directory logic rather than to a cache.
	Dir bool `json:"dir,omitempty"`
}

// MarshalJSON emits the kind as its string name.
func (e Event) MarshalJSON() ([]byte, error) {
	type alias Event
	return json.Marshal(struct {
		Kind string `json:"kind"`
		alias
	}{Kind: e.Kind.String(), alias: alias(e)})
}

// Trace accumulates protocol events in order. It is not safe for
// concurrent use; the simulation kernel is single-threaded. Message
// IDs and invalidation-wave numbers are assigned by the owning Probe,
// so a Trace and any attached Sinks see identically-tagged events.
type Trace struct {
	events []Event
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{}
}

// Events returns the recorded events in capture order. The slice is
// the trace's own backing store; callers must not mutate it.
func (t *Trace) Events() []Event { return t.events }

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.events) }

func (t *Trace) add(e Event) { t.events = append(t.events, e) }

// WriteJSONL writes one JSON object per event, newline-delimited.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ---------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------

// ChromeEvent is one entry of the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing load). Simulated cycles map 1:1 onto
// the format's microsecond timestamps.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
}

// WriteChromeTrace exports the trace in Chrome trace-event format: one
// thread track per node, messages as complete ("X") slices at the
// sender joined to the receiver by flow arrows, transactions as async
// begin/end pairs, and state transitions as instant events. Load the
// file in Perfetto (ui.perfetto.dev) to inspect an invalidation tree
// fan-out visually.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	// Delivery instants by message id, for send-slice durations.
	deliverAt := make(map[int64]uint64, len(t.events)/2)
	maxNode := 0
	for _, e := range t.events {
		if e.Kind == KindDeliver {
			deliverAt[e.ID] = e.At
		}
		if e.Src > maxNode {
			maxNode = e.Src
		}
		if e.Dst > maxNode {
			maxNode = e.Dst
		}
	}

	out := chromeFile{}
	emit := func(ce ChromeEvent) { out.TraceEvents = append(out.TraceEvents, ce) }

	emit(ChromeEvent{Name: "process_name", Ph: "M", Pid: 0, Cat: "__metadata",
		Args: map[string]any{"name": "machine"}})
	for n := 0; n <= maxNode; n++ {
		emit(ChromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: n, Cat: "__metadata",
			Args: map[string]any{"name": fmt.Sprintf("node %d", n)}})
	}

	for _, e := range t.events {
		switch e.Kind {
		case KindSend:
			dur := uint64(1)
			if at, ok := deliverAt[e.ID]; ok && at > e.At {
				dur = at - e.At
			}
			args := map[string]any{
				"block": e.Block, "src": e.Src, "dst": e.Dst, "req": e.Req, "id": e.ID,
			}
			if e.Wave > 0 {
				args["wave"] = e.Wave
			}
			id := fmt.Sprintf("m%d", e.ID)
			emit(ChromeEvent{Name: e.Type, Cat: "msg", Ph: "X", Ts: e.At, Dur: dur,
				Pid: 0, Tid: e.Src, Args: args})
			emit(ChromeEvent{Name: e.Type, Cat: "msgflow", Ph: "s", Ts: e.At,
				Pid: 0, Tid: e.Src, ID: id})
		case KindDeliver:
			id := fmt.Sprintf("m%d", e.ID)
			emit(ChromeEvent{Name: "recv " + e.Type, Cat: "msgrecv", Ph: "X", Ts: e.At, Dur: 1,
				Pid: 0, Tid: e.Dst, Args: map[string]any{"block": e.Block, "id": e.ID}})
			emit(ChromeEvent{Name: e.Type, Cat: "msgflow", Ph: "f", BP: "e", Ts: e.At,
				Pid: 0, Tid: e.Dst, ID: id})
		case KindTxnStart:
			emit(ChromeEvent{Name: txnName(e), Cat: "txn", Ph: "b", Ts: e.At,
				Pid: 0, Tid: e.Src, ID: fmt.Sprintf("t%d.%d", e.Src, e.Block),
				Args: map[string]any{"block": e.Block}})
		case KindTxnEnd:
			emit(ChromeEvent{Name: txnName(e), Cat: "txn", Ph: "e", Ts: e.At,
				Pid: 0, Tid: e.Src, ID: fmt.Sprintf("t%d.%d", e.Src, e.Block)})
		case KindCacheState:
			emit(ChromeEvent{Name: fmt.Sprintf("%s b%d", e.Label, e.Block), Cat: "cache",
				Ph: "i", S: "t", Ts: e.At, Pid: 0, Tid: e.Src})
		case KindDirState:
			emit(ChromeEvent{Name: fmt.Sprintf("dir b%d: %s", e.Block, e.Label), Cat: "dir",
				Ph: "i", S: "t", Ts: e.At, Pid: 0, Tid: e.Src})
		case KindGateWait:
			emit(ChromeEvent{Name: fmt.Sprintf("gate wait b%d", e.Block), Cat: "gate",
				Ph: "i", S: "t", Ts: e.At, Pid: 0, Tid: e.Src})
		case KindHomeStart:
			emit(ChromeEvent{Name: fmt.Sprintf("home %s b%d", e.Type, e.Block), Cat: "home",
				Ph: "i", S: "t", Ts: e.At, Pid: 0, Tid: e.Src})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func txnName(e Event) string {
	if e.Write {
		return fmt.Sprintf("write miss b%d", e.Block)
	}
	return fmt.Sprintf("read miss b%d", e.Block)
}

// FanoutBound returns the paper's depth bound for invalidating p
// sharers with k-ary trees: ceil(log_k p) + 1 (minimum 1).
func FanoutBound(k, p int) int {
	if p < 1 {
		return 1
	}
	if k < 2 {
		k = 2
	}
	b := int(math.Ceil(math.Log(float64(p))/math.Log(float64(k)))) + 1
	if b < 1 {
		b = 1
	}
	return b
}
