package protocol

import (
	"fmt"

	"multicube/internal/coherence"
)

// This file checks the table against the delivery of bus operations: the
// machine enters, for each operation, only the controllers it addresses
// (internal/coherence's deliver.go, DESIGN.md §5 decision 11). Who is
// addressed depends on position alone — where a node sits relative to the
// originator and the home column, and which wires the probe phase drove —
// so it is a predicate over the position atoms, and every rule that does
// anything must be guarded by a conjunction that implies it.

// Addressed reports whether a controller in env is among those an
// operation of kind ev is delivered to. It is written over Origin,
// SameRow, SameCol, Home, ClaimantSelf, ModifiedWire, Suppressed and
// Snarfable only. It under-approximates the machine's set where the
// machine widens to the whole bus — under the fault hook, snarfing, or
// an Observer — and Conformance holds the machine to it.
func Addressed(ev Event, env Env) bool {
	f := ev.Flags
	if ev.Dim == rowBus {
		switch {
		case f == fREQ:
			// The claimant forwards when the modified-line signal is up;
			// else the home column answers.
			return env.Has(AtomSuppressed) ||
				env.Has(AtomModifiedWire) && env.Has(AtomClaimantSelf) ||
				!env.Has(AtomModifiedWire) && env.Has(AtomHome)
		case ev.Txn == rd && (f == fRPL || f == fRPL|fUPD):
			return env.Has(AtomOrigin) || env.Has(AtomSnarfable) ||
				f.Has(fUPD) && env.Has(AtomHome)
		case f == fRPL:
			// An ownership reply: the originator or its column's forwarder.
			return env.Has(AtomSameCol)
		case f == fUPD:
			return env.Has(AtomHome)
		}
		return true
	}
	switch {
	case f == fREQ|fMEM, f == fUPD|fMEM:
		return false // for the memory module only
	case ev.Txn == rd && (f == fRPL|fNOP || f == fRPL|fUPD || f == fRPL|fUPD|fMEM):
		return env.Has(AtomSameRow) || env.Has(AtomSnarfable)
	}
	return true
}

// addressingAtoms are the atoms Addressed reads.
var addressingAtoms = G(Y(AtomOrigin), Y(AtomSameRow), Y(AtomSameCol), Y(AtomHome),
	Y(AtomClaimantSelf), Y(AtomModifiedWire), Y(AtomSuppressed), Y(AtomSnarfable)).Care

// acts reports whether a rule does anything: schedules a bus operation,
// changes the line's state or table membership, or may issue traffic for
// other lines.
func (r *Rule) acts() bool {
	return len(r.Actions) > 0 || r.Next.Kind != NextSame || r.MLT != MLTSame || r.SideTraffic
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
				if consistent(r.Event, st, env, mask) && r.Guard.Matches(env) && !Addressed(r.Event, env) {
					errs = append(errs, fmt.Errorf("rule %s acts at state %v env %v, which the delivery does not address",
						r.Name, coherence.StateName(st), env))
					break search
				}
			}
		}
	}
	return errs
}
