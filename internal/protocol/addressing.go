package protocol

import (
	"fmt"

	"multicube/internal/cache"
	"multicube/internal/coherence"
)

// This file checks the table against the delivery of bus operations: the
// machine enters, for each operation, only the controllers it addresses
// (DESIGN.md §5 decision 11). Whom an operation addresses is
// internal/coherence's delivery table (deliver.go); Addressed reads it
// here as a predicate over the position atoms, and every rule that does
// anything must be guarded by a conjunction that implies it.

// Addressed reports whether a controller holding the line in state st, in
// env, is among those an operation of kind ev is delivered to: the
// delivery table's row for ev, read over the state and the position, wire
// and pending-READ atoms. The machine reads the same row
// as positions along the bus, and widens it to the whole bus under the
// fault hook, snarfing, an overflowing insert or an Observer; this
// predicate widens only where the hook fired (Suppressed), the node could
// snarf (Snarfable) or the insert overflowed (Overflow), so it
// under-approximates the machine's set, and Conformance holds the
// machine to it.
func Addressed(ev Event, st cache.State, env Env) bool {
	c := coherence.ClassOf(ev.Dim, ev.Txn, ev.Flags)
	if c.Suppressible() && env.Has(AtomSuppressed) || c.Snarfable() && env.Has(AtomSnarfable) ||
		c.Overflowable() && env.Has(AtomOverflow) {
		return true
	}
	switch c.Addressee() {
	case coherence.ToClaimantElseHome:
		if env.Has(AtomModifiedWire) {
			return env.Has(AtomClaimantSelf)
		}
		return env.Has(AtomHome)
	case coherence.ToOrigin:
		return env.Has(AtomOrigin)
	case coherence.ToOriginAndHome:
		return env.Has(AtomOrigin) || env.Has(AtomHome)
	case coherence.ToForwarder:
		if ev.Dim == rowBus {
			return env.Has(AtomSameCol)
		}
		return env.Has(AtomSameRow)
	case coherence.ToForwarderAndServers:
		return env.Has(AtomSameRow) || env.Has(AtomServes)
	case coherence.ToHome:
		return env.Has(AtomHome)
	case coherence.ToNone:
		return false
	case coherence.ToPurged:
		return st == coherence.Shared && !env.Has(AtomHome) || env.Has(AtomPendRead) ||
			ev.Flags.Has(coherence.REPLY) && env.Has(AtomOrigin)
	}
	return true
}

// addressingAtoms are the atoms Addressed reads.
var addressingAtoms = G(Y(AtomOrigin), Y(AtomSameRow), Y(AtomSameCol), Y(AtomHome), Y(AtomClaimantSelf),
	Y(AtomModifiedWire), Y(AtomServes), Y(AtomSuppressed), Y(AtomSnarfable), Y(AtomOverflow), Y(AtomPendRead)).Care

// acts reports whether a rule does anything: schedules a bus operation,
// changes the line's state, or may issue traffic for other lines. A table
// change is the column snooper's (Conformance still checks the MLT clause).
func (r *Rule) acts() bool {
	return len(r.Actions) > 0 || r.Next.Kind != NextSame || r.SideTraffic
}

// CheckAddressing proves that every rule that acts is enabled only at a
// controller Addressed admits: over every realizable (state, environment)
// of the rule's group and the addressing atoms, the guard implies the
// predicate. It returns one error per offending rule.
func (t *Table) CheckAddressing() []error {
	var errs []error
	for _, r := range t.rules {
		if !r.acts() {
			continue
		}
		mask := addressingAtoms
		for _, g := range t.groups[r.Event] {
			mask |= g.Guard.Care
		}
		atoms := maskBits(mask)
	search:
		for _, st := range allStates {
			if !r.States.Has(st) {
				continue
			}
			for idx := 0; idx < 1<<len(atoms); idx++ {
				env := envOf(atoms, idx)
				if consistent(r.Event, st, env, mask) && r.Guard.Matches(env) && !Addressed(r.Event, st, env) {
					errs = append(errs, fmt.Errorf("rule %s acts at state %v env %v, which the delivery does not address",
						r.Name, coherence.StateName(st), env))
					break search
				}
			}
		}
	}
	return errs
}
