package check

import "fmt"

// checkInvariants asserts the drained-state invariants (see Invariants
// in machine.go) with the checker-owned message pool as the in-flight
// set.
func (r *replayer) checkInvariants() error {
	return r.inv.check(r.m, r.cfg.Blocks, r.pool)
}

// checkTerminal asserts quiescent-state convergence on a state with no
// enabled choices: nothing may be stuck. Every node finished its
// program (an unfinished node with no deliverable message is
// deadlocked), no transaction or home gate is outstanding, and the
// monitor's end-of-run checks pass (Quiescent in machine.go).
func (r *replayer) checkTerminal() error {
	for n := range r.cfg.Program {
		if r.cursors[n] < len(r.cfg.Program[n]) {
			return fmt.Errorf("deadlock: node %d stuck before %q with nothing in flight",
				n, r.cfg.Program[n][r.cursors[n]])
		}
	}
	return Quiescent(r.m, r.cfg.Blocks)
}
