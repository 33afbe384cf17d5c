package mc

import "multicube/internal/memmodel"

// The sequential-consistency witness records each execution's completed
// reads and writes into a memmodel.History and delegates the checking:
// check runs the per-address coherence oracle (the property every
// cache-coherence protocol must provide) after every execution, and
// checkSC runs the full cross-address sequential-consistency search when
// the scenario opts in with Scenario.CheckSC.
//
// Every OpWrite stores a unique nonzero value and records the value it
// overwrote, which is exactly the History format memmodel wants: each
// address's write order is recovered from the old-value chains without
// searching.
//
// Lines touched by lock operations (OpTAS, OpSync, OpUnlock) or by
// OpAllocate (a blind write that observes no predecessor) are excluded.

type witness struct {
	tracked map[uint64]bool
	hist    memmodel.History
}

func newWitness(sc *Scenario) *witness {
	tracked := make(map[uint64]bool)
	for _, p := range sc.Procs {
		for _, op := range p.Ops {
			switch op.Kind {
			case OpRead, OpWrite, OpWriteBack:
				if _, ok := tracked[op.Line]; !ok {
					tracked[op.Line] = true
				}
			case OpTAS, OpSync, OpUnlock, OpAllocate:
				tracked[op.Line] = false
			}
		}
	}
	return &witness{tracked: tracked}
}

// reset forgets the recorded history, for the next execution.
func (w *witness) reset() { w.hist = memmodel.History{} }

func (w *witness) write(proc int, line, old, val uint64) {
	if w.tracked[line] {
		w.hist.Write(proc, line, old, val)
	}
}

func (w *witness) read(proc int, line, val uint64) {
	if w.tracked[line] {
		w.hist.Read(proc, line, val)
	}
}

// check validates the recorded history; it returns nil when the history
// is per-address sequentially consistent.
func (w *witness) check() *Violation {
	if err := w.hist.CheckCoherence(); err != nil {
		return &Violation{Kind: "sc", Msg: err.Error()}
	}
	return nil
}

// checkSC searches for a witness total order over ALL recorded events —
// full sequential consistency, not just per-address coherence. It
// returns a "sc-total" violation when no such order exists, and reports
// undecided=true when the node budget ran out before the search could
// conclude either way. Call it only after check() has passed: the
// sharper per-address diagnostics take precedence.
func (w *witness) checkSC(maxNodes int) (v *Violation, undecided bool) {
	res := memmodel.Check(&w.hist, memmodel.Options{MaxNodes: maxNodes})
	switch res.Verdict {
	case memmodel.VerdictViolation:
		return &Violation{Kind: "sc-total", Msg: res.Reason}, false
	case memmodel.VerdictUndecided:
		return nil, true
	default:
		return nil, false
	}
}
