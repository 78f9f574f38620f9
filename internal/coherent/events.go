package coherent

// The machine's own kernel events. Each is a record the machine already
// owns — a message, a transaction, a node's hit record, a RelHome
// companion — viewed as a sim.Handler, so scheduling it allocates
// nothing. A message or transaction fires several kinds of event; each
// kind is a named view of the same record (a pointer conversion, not a
// copy). Message, transaction, hit and companion records come from
// per-lane or per-node free lists and go back after their last
// dispatch.

// msgDelivery is a sent message's arrival at its destination, the
// handler sendNow gives the network.
type msgDelivery Msg

// Fire reports the delivery to the network and dispatches the message,
// then returns the record to the destination lane's free list unless
// the record now waits at a held gate.
//
//dirccvet:hotpath
func (d *msgDelivery) Fire() {
	msg := (*Msg)(d)
	m := msg.mach
	m.Net.Delivered(msg.Dst)
	m.markHomeCommit(msg)
	if m.dispatch(msg) {
		m.freeMsg(msg)
	}
}

// homeRelease is a RelHome message's companion event at the home, at the
// delivery instant (see sendNow). It holds the block, not the message:
// on a sequential machine the companion fires after the delivery, whose
// handler may already have reused the recycled message record for a new
// send. Each lane keeps a free list of them (Machine.free); a record
// lives on its home's lane.
type homeRelease struct {
	mach  *Machine
	block BlockID
	next  *homeRelease // free-list link
}

// Fire returns the record to the home lane's free list, then commits
// the granted write and releases the block's gate.
//
//dirccvet:hotpath
func (r *homeRelease) Fire() {
	m, b := r.mach, r.block
	l := &m.free[m.laneOf(m.Home(b))]
	r.next = l.rels
	l.rels = r
	m.Store.CommitWrite(b)
	m.ReleaseHome(b)
}

// redelivery hands a message deferred on a transaction back to the
// engine once the transaction has completed (CompleteTxn).
type redelivery Msg

// Fire delivers the message to the cache controller again and recycles
// the record DeferToTxn made.
//
//dirccvet:hotpath
func (r *redelivery) Fire() {
	msg := (*Msg)(r)
	m := msg.mach
	m.proto.CacheMsg(m, msg)
	m.freeMsg(msg)
}

// gateRestart starts a gated request that waited in its block's gate
// queue, once ReleaseHome hands it the gate.
type gateRestart Msg

// Fire processes the request as a fresh arrival and recycles its
// record.
//
//dirccvet:hotpath
func (g *gateRestart) Fire() {
	msg := (*Msg)(g)
	m := msg.mach
	m.startHome(msg)
	m.freeMsg(msg)
}

// txnStart hands a miss to the engine, one cache access after the
// processor issued it (issueMiss).
type txnStart Txn

// Fire calls the engine's StartMiss.
//
//dirccvet:hotpath
func (s *txnStart) Fire() {
	txn := (*Txn)(s)
	txn.mach.proto.StartMiss(txn.mach, txn)
}

// txnDone resumes the processor one cache access after its miss
// completed (CompleteTxn).
type txnDone Txn

// Fire returns the record to its node's free list, then passes the
// reference's result to the processor, which may issue its next
// reference, and so take the record again, at once.
//
//dirccvet:hotpath
func (d *txnDone) Fire() {
	txn := (*Txn)(d)
	m, done, ret := txn.mach, txn.done, txn.ret
	// Drop what the record references, so a parked record keeps no
	// processor, frame or engine state alive.
	txn.Line, txn.Scratch, txn.RMW, txn.done = nil, nil, nil, nil
	sp := &m.spare[txn.Node]
	txn.next, sp.txns = sp.txns, txn
	done(ret)
}

// memReply is a reply the home sends from memory (ReplyFromMemory),
// one memory access after the engine served the request: a message
// record taken from the home lane's free list, waiting for its data.
type memReply Msg

// Fire reads the block's data from the store, marks the requester's
// read served when the reply says so, sends the record itself, and
// releases the block's gate unless the reply's delivery does
// (RelHome).
//
//dirccvet:hotpath
func (r *memReply) Fire() {
	msg := (*Msg)(r)
	m, b, rel := msg.mach, msg.Block, msg.RelHome
	msg.Data = m.Store.Value(b)
	if msg.serve != ServeNone {
		m.MarkServed(msg.Requester, b, msg.serve)
	}
	m.post(msg)
	if !rel {
		m.ReleaseHome(b)
	}
}

// hitDone resumes the processor one cache access after a hit. Each node
// keeps a free list of them (Machine.spare): a node allocates one only
// while more of its hits are in flight than ever before.
type hitDone struct {
	mach *Machine
	node NodeID
	done func(uint64)
	v    uint64
	next *hitDone // free-list link
}

// Fire returns the record to its node's free list, then passes the hit's
// value to the processor, which may issue its next reference at once.
//
//dirccvet:hotpath
func (h *hitDone) Fire() {
	done, v := h.done, h.v
	h.done = nil
	sp := &h.mach.spare[h.node]
	h.next, sp.hits = sp.hits, h
	done(v)
}
