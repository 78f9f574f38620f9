// Fixture for the probeguard analyzer: every *obs.Probe method call
// must be dominated by a nil check of the same receiver expression.
package probeguard

import "dircc/internal/obs"

type machine struct {
	probe *obs.Probe
	now   uint64
}

func bad(m *machine) {
	m.probe.Tick(m.now) // want `without a m.probe != nil guard`
}

func badAfterUnrelatedGuard(m, other *machine) {
	if other.probe != nil {
		m.probe.Tick(m.now) // want `without a m.probe != nil guard`
	}
}

func badWrongBranch(m *machine) {
	if m.probe == nil {
		m.probe.Tick(m.now) // want `without a m.probe != nil guard`
	}
}

func goodEnclosing(m *machine) {
	if m.probe != nil {
		m.probe.Tick(m.now)
	}
}

func goodConjunction(m *machine, verbose bool) {
	if verbose && m.probe != nil {
		m.probe.NetSend(m.now, m.now+5, 3)
	}
}

func goodEarlyReturn(m *machine) {
	if m.probe == nil {
		return
	}
	m.probe.Finalize(obs.Event{At: m.now, Kind: obs.KindTxnStart}, nil)
	m.probe.Finalize(obs.Event{At: m.now, Kind: obs.KindTxnEnd}, nil)
}

func goodElseBranch(m *machine) {
	if m.probe == nil {
		_ = m.now
	} else {
		m.probe.Tick(m.now)
	}
}

func goodLoopContinue(ms []*machine) {
	for _, m := range ms {
		if m.probe == nil {
			continue
		}
		m.probe.Tick(m.now)
	}
}

func goodNested(m *machine) {
	if m.probe != nil {
		for i := 0; i < 3; i++ {
			m.probe.Tick(m.now + uint64(i))
		}
	}
}

// The sink emit pattern from the attribution collector wiring: the
// send writes the probe-assigned message id through the slot, which
// later feeds the matching deliver. Both calls are probe methods and
// need the guard whether or not the id slot is used.
func badSinkSend(m *machine) {
	var id int64
	m.probe.Finalize(obs.Event{At: m.now, Kind: obs.KindSend, Type: "Inv", Dst: 1, Block: 9, Req: 2, Dir: true}, &id) // want `without a m.probe != nil guard`
	_ = id
}

func badSinkDeliver(m *machine, id int64) {
	if m.probe == nil {
		_ = m.now
	}
	m.probe.Finalize(obs.Event{At: m.now, Kind: obs.KindDeliver, Type: "Inv", Dst: 1, Block: 9, ID: id, Dir: true}, nil) // want `without a m.probe != nil guard`
}

func goodSinkSendDeliver(m *machine) {
	if m.probe == nil {
		return
	}
	var id int64
	m.probe.Finalize(obs.Event{At: m.now, Kind: obs.KindSend, Type: "Inv", Dst: 1, Block: 9, Req: 2, Dir: true}, &id)
	m.probe.Finalize(obs.Event{At: m.now + 1, Kind: obs.KindDeliver, Type: "Inv", Dst: 1, Block: 9, ID: id, Dir: true}, nil)
	m.probe.Finalize(obs.Event{At: m.now + 2, Kind: obs.KindHomeStart, Type: "WriteReq", Src: 1, Dst: 1, Block: 9, Req: 2}, nil)
}
