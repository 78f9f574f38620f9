// Fixture for the msgown analyzer: in a package that declares an
// engine, a handler's *coherent.Msg is a record the machine recycles
// when the handler returns, so nothing may keep it past the call.
package msgown

import (
	"dircc/internal/cache"
	"dircc/internal/coherent"
)

// pending keeps its request by value: no finding.
type pending struct {
	req      coherent.Msg
	acksLeft int
}

// stale is the shape every engine had before records were recycled.
type stale struct {
	req  *coherent.Msg            // want `declared type holds a \*coherent.Msg`
	log  []*coherent.Msg          // want `declared type holds a \*coherent.Msg`
	byID map[int]*coherent.Msg    // want `declared type holds a \*coherent.Msg`
	ch   chan *coherent.Msg       // want `declared type holds a \*coherent.Msg`
	fn   func(*coherent.Msg) bool // a func type stores nothing: no finding
}

// msgs is a named slice of records.
type msgs []*coherent.Msg // want `declared type holds a \*coherent.Msg`

var last *coherent.Msg // want `package variable last`

type engine struct {
	pend *pending
	old  *stale
	q    []coherent.Msg
}

func (e *engine) StartMiss(m *coherent.Machine, txn *coherent.Txn) {
	m.Send(coherent.Msg{
		Type: coherent.MsgReadReq, Src: txn.Node, Dst: m.Home(txn.Block),
		Block: txn.Block, Requester: txn.Node, Aux: coherent.NoNode,
		ToDir: true, Gated: true,
	})
}

// HomeRequest keeps value copies and fields, which is the rule.
func (e *engine) HomeRequest(m *coherent.Machine, msg *coherent.Msg) {
	e.pend = &pending{req: *msg}
	e.q = append(e.q, *msg)
	req, b := msg.Requester, msg.Block
	c := *msg
	m.ScheduleAt(m.Home(b), m.Cfg.MemLatency, func() {
		m.Send(coherent.Msg{Type: coherent.MsgDataReply, Src: m.Home(b), Dst: req, Block: b, Aux: coherent.NoNode})
		m.Send(coherent.Msg{Type: coherent.MsgDataReply, Src: m.Home(b), Dst: c.Requester, Block: b, Aux: coherent.NoNode})
		m.ReleaseHome(b)
	})
	e.grant(m, &e.pend.req)
	local := msg // a local alias ends with the call: no finding
	_ = local
}

// grant takes a pointer it uses only during the call: no finding.
func (e *engine) grant(m *coherent.Machine, msg *coherent.Msg) {
	m.CompleteTxn(m.Txn(msg.Requester, msg.Block), cache.Exclusive, msg.Data, nil)
}

// HomeMsg keeps the record itself, in every way msgown reports.
func (e *engine) HomeMsg(m *coherent.Machine, msg *coherent.Msg) {
	e.old = &stale{req: msg}           // want `stored in a composite literal`
	e.old.req = msg                    // want `stored in e.old.req`
	e.old.log = append(e.old.log, msg) // want `appended to a slice`
	e.old.byID[0] = msg                // want `stored in e.old.byID\[0\]`
	e.old.ch <- msg                    // want `sent on a channel`
	last = msg                         // want `stored in last`
	ms := []*coherent.Msg{msg}         // want `stored in a composite literal`
	_ = ms
}

// CacheMsg captures the record in closures, deferred or not.
func (e *engine) CacheMsg(m *coherent.Machine, msg *coherent.Msg) {
	n := msg.Dst
	chain := msg
	m.DeferAt(n, msg.Src, func() {
		_ = chain.Data // want `func literal captures \*coherent.Msg chain`
	})
	m.ScheduleAt(n, 1, func() {
		m.Invalidate(n, msg.Block) // want `func literal captures \*coherent.Msg msg`
	})
	keep := func(x *coherent.Msg) bool { return x.Seq > 0 } // its own parameter: no finding
	_ = keep(msg)
	if txn := m.Txn(n, msg.Block); txn != nil {
		txn.Deferred = append(txn.Deferred, msg) // want `appended to a slice`
		m.DeferToTxn(n, msg)                     // the machine copies it: no finding
	}
}

func (e *engine) OnEvict(m *coherent.Machine, n coherent.NodeID, ln *cache.Line) {}

func (e *engine) DirectoryBits(cfg coherent.Config, blocksPerNode int) int64 { return 0 }

func (e *engine) Name() string { return "msgown" }
