package coherent

// The machine's own kernel events. Each is a record the machine already
// owns — a message, a transaction, a node's hit record — viewed as a
// sim.Handler, so scheduling it allocates nothing. A message or
// transaction fires several kinds of event; each kind is a named view of
// the same record (a pointer conversion, not a copy).

// msgDelivery is a sent message's arrival at its destination, the
// handler sendNow gives the network.
type msgDelivery Msg

// Fire reports the delivery to the network and dispatches the message.
//
//dirccvet:hotpath
func (d *msgDelivery) Fire() {
	msg := (*Msg)(d)
	m := msg.mach
	m.Net.Delivered(msg.Dst)
	m.markHomeCommit(msg)
	m.dispatch(msg)
}

// homeRelease is a RelHome message's companion event at the home, at the
// delivery instant (see sendNow).
type homeRelease Msg

// Fire commits the granted write and releases the block's gate.
//
//dirccvet:hotpath
func (r *homeRelease) Fire() {
	m := r.mach
	m.Store.CommitWrite(r.Block)
	m.ReleaseHome(r.Block)
}

// redelivery hands a message deferred on a transaction back to the
// engine once the transaction has completed (CompleteTxn).
type redelivery Msg

// Fire delivers the message to the cache controller again.
//
//dirccvet:hotpath
func (r *redelivery) Fire() {
	msg := (*Msg)(r)
	msg.mach.proto.CacheMsg(msg.mach, msg)
}

// gateRestart starts a gated request that waited in its block's gate
// queue, once ReleaseHome hands it the gate.
type gateRestart Msg

// Fire processes the request as a fresh arrival.
//
//dirccvet:hotpath
func (g *gateRestart) Fire() {
	msg := (*Msg)(g)
	msg.mach.startHome(msg)
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

// Fire passes the reference's result to the processor.
//
//dirccvet:hotpath
func (d *txnDone) Fire() { d.done(d.ret) }

// hitDone resumes the processor one cache access after a hit. Each node
// keeps a free list of them (Machine.hits): a node allocates one only
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
	h.next = h.mach.hits[h.node]
	h.mach.hits[h.node] = h
	done(v)
}
