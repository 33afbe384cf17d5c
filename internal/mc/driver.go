package mc

import (
	"fmt"

	"multicube/internal/sim"
)

// stepTag tags the kernel event that issues a processor's next program
// operation, so processor progress competes with protocol events at
// every choice point and is visible to fingerprints.
type stepTag struct {
	proc int
	step int
}

func (t stepTag) String() string { return fmt.Sprintf("proc%d step %d", t.proc, t.step) }

// driver is the half of a checker that does not depend on the machine:
// where each processor's program stands in the execution in progress,
// the witness that execution feeds, and the verdict sequence at
// quiescence. instance and sbInstance embed it and supply the machine.
type driver struct {
	sc *Scenario
	sh *shared
	k  *sim.Kernel

	pc        []int // next op index per processor
	completed int   // ops completed across all processors
	wit       *witness
	// issueFn[p] is the kernel event body issuing processor p's next op;
	// label[p] names the processor in a deadlock report.
	issueFn []func()
	label   []string

	// Cross-address SC check counters (Scenario.CheckSC only).
	scChecks    uint64
	scUndecided uint64

	// failure is a driver-level protocol failure (e.g. a write that
	// completed without the line present), reported as a violation.
	failure string
}

func newDriver(sc *Scenario, sh *shared, issue func(p int), label func(p int) string) driver {
	d := driver{
		sc:      sc,
		sh:      sh,
		pc:      make([]int, len(sc.Procs)),
		wit:     newWitness(sc),
		issueFn: make([]func(), len(sc.Procs)),
		label:   make([]string, len(sc.Procs)),
	}
	for p := range sc.Procs {
		p := p
		d.issueFn[p] = func() { issue(p) }
		d.label[p] = label(p)
	}
	return d
}

// start puts the programs at the start of a from-scratch execution on
// kernel k, each processor's first step pending.
func (d *driver) start() {
	d.completed, d.failure = 0, ""
	d.wit.reset()
	for p := range d.pc {
		d.pc[p] = 0
		d.k.AtTagged(0, stepTag{proc: p, step: 0}, d.issueFn[p])
	}
}

func (d *driver) complete(p int) {
	d.pc[p]++
	d.completed++
	if next := d.pc[p]; next < len(d.sc.Procs[p].Ops) {
		d.k.AfterTagged(0, stepTag{proc: p, step: next}, d.issueFn[p])
	}
}

func (d *driver) fail(msg string) {
	if d.failure == "" {
		d.failure = msg
	}
}

// quiescence runs when the kernel has no pending events: program
// completion (a quiescent machine with unfinished programs means a
// transaction was lost), the machine's global-state oracle, and the
// sequential-consistency witness.
func (d *driver) quiescence(invariants func() []error) *Violation {
	if d.completed < d.sc.TotalOps() {
		var stuck []string
		for p, pr := range d.sc.Procs {
			if d.pc[p] < len(pr.Ops) {
				stuck = append(stuck, fmt.Sprintf("%s at op %d/%d (%v line %d)",
					d.label[p], d.pc[p], len(pr.Ops), pr.Ops[d.pc[p]].Kind, pr.Ops[d.pc[p]].Line))
			}
		}
		return &Violation{Kind: "deadlock",
			Msg: fmt.Sprintf("machine quiescent with unfinished programs: %v", stuck)}
	}
	if errs := invariants(); len(errs) > 0 {
		msg := errs[0].Error()
		if len(errs) > 1 {
			msg = fmt.Sprintf("%s (and %d more)", msg, len(errs)-1)
		}
		return &Violation{Kind: "invariant", Msg: msg}
	}
	if v := d.wit.check(); v != nil {
		return v
	}
	if d.sc.CheckSC {
		d.scChecks++
		v, undecided := d.wit.checkSC(d.sh.scNodes)
		if undecided {
			d.scUndecided++
		}
		if v != nil {
			return v
		}
	}
	return nil
}

func (d *driver) kernel() *sim.Kernel { return d.k }

func (d *driver) scStats() (checks, undecided uint64) {
	return d.scChecks, d.scUndecided
}
