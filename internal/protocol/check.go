package protocol

import (
	"fmt"

	"multicube/internal/cache"
	"multicube/internal/coherence"
)

// This file is the static well-formedness checker: it proves, per event
// group, that every realizable (state, environment) pair enables exactly
// one rule, and that every rule is enabled somewhere. "Realizable" is
// defined by consistent, a conservative predicate encoding invariants the
// atoms inherit from the machine (an originator is on its own row and
// column; the claimant raised the modified-line signal; a poisoned
// pending transaction is a pending READ; a SYNC reply
// accepted by its originator finds the reserved copy the initiation
// procedure installed). The predicate is deliberately applied only to the
// atoms a group actually distinguishes — constraints mentioning atoms
// outside that mask are skipped, which over-approximates the realizable
// set and keeps the check sound: a spurious "unreal" conflict can appear,
// but a real conflict can never hide.

// consistent reports whether (st, env) restricted to mask is realizable
// for the given event. Constraints whose atoms are not all in mask are
// skipped.
func consistent(ev Event, st cache.State, env Env, mask Env) bool {
	in := func(atoms ...Atom) bool {
		for _, a := range atoms {
			if mask&(1<<a) == 0 {
				return false
			}
		}
		return true
	}
	has := env.Has

	// A node is the originator iff it shares both the row and the column.
	if in(AtomOrigin, AtomSameRow) && has(AtomOrigin) && !has(AtomSameRow) {
		return false
	}
	if in(AtomOrigin, AtomSameCol) && has(AtomOrigin) && !has(AtomSameCol) {
		return false
	}
	if in(AtomOrigin, AtomSameRow, AtomSameCol) &&
		has(AtomSameRow) && has(AtomSameCol) && !has(AtomOrigin) {
		return false
	}
	// The claimant is a node that raised the modified-line signal.
	if in(AtomClaimantSelf, AtomModifiedWire) && has(AtomClaimantSelf) && !has(AtomModifiedWire) {
		return false
	}
	// The XFER target is on its own column.
	if in(AtomTargetSelf, AtomTargetSameCol) && has(AtomTargetSelf) && !has(AtomTargetSameCol) {
		return false
	}
	// The pend-derived atoms refine PendMatch.
	if in(AtomPendPoisoned, AtomPendMatch) && has(AtomPendPoisoned) && !has(AtomPendMatch) {
		return false
	}
	if in(AtomPendQueued, AtomPendMatch) && has(AtomPendQueued) && !has(AtomPendMatch) {
		return false
	}
	// Only a pending READ is ever poisoned; only a pending SYNC is ever
	// queued — and PendMatch implies the pending transaction equals the
	// event's.
	if in(AtomPendPoisoned) && has(AtomPendPoisoned) && ev.Txn != coherence.READ {
		return false
	}
	if in(AtomPendQueued) && has(AtomPendQueued) && ev.Txn != coherence.SYNC {
		return false
	}
	// QueuedTail is "pending SYNC for this line, admitted": for a SYNC
	// event it coincides with PendMatch∧PendQueued; for any other event a
	// queued tail's pending transaction cannot match.
	if ev.Txn == coherence.SYNC && in(AtomQueuedTail, AtomPendMatch, AtomPendQueued) &&
		has(AtomQueuedTail) != (has(AtomPendMatch) && has(AtomPendQueued)) {
		return false
	}
	if ev.Txn != coherence.SYNC && in(AtomQueuedTail, AtomPendMatch) &&
		has(AtomQueuedTail) && has(AtomPendMatch) {
		return false
	}
	// Will-serve: a modified copy, or an admitted tail's reserved one, with no successor linked.
	if ev.Flags.Has(coherence.REQUEST|coherence.REMOVE) && in(AtomServes, AtomLinkFree, AtomQueuedTail) &&
		has(AtomServes) != (has(AtomLinkFree) && (st == coherence.Modified || st == coherence.Reserved && has(AtomQueuedTail))) {
		return false
	}
	// Snarf captures only READ data into a retained invalid tag.
	if in(AtomSnarfable) && has(AtomSnarfable) && (st != coherence.Invalid || ev.Txn != coherence.READ) {
		return false
	}
	// A SYNC reply accepted by its originator finds the reserved copy the
	// initiation procedure installed (SyncAcquire writes the line reserved
	// before issuing the request; the copy is pinned until handoff or
	// failure cleanup).
	if ev.Txn == coherence.SYNC && ev.Flags.Has(coherence.REPLY) &&
		in(AtomOrigin, AtomPendMatch) && has(AtomOrigin) && has(AtomPendMatch) &&
		st != coherence.Reserved {
		return false
	}
	// An XFER handoff names a queue member: the target holds a reserved
	// copy with a matching pending SYNC (the implementation panics
	// otherwise — such a state is unobservable).
	if ev.Flags.Has(coherence.XFER) && in(AtomTargetSelf) && has(AtomTargetSelf) {
		if st != coherence.Reserved {
			return false
		}
		if in(AtomPendMatch) && !has(AtomPendMatch) {
			return false
		}
	}
	return true
}

// maskBits enumerates the atoms present in mask.
func maskBits(mask Env) []Atom {
	var atoms []Atom
	for a := Atom(0); a < numAtoms; a++ {
		if mask&(1<<a) != 0 {
			atoms = append(atoms, a)
		}
	}
	return atoms
}

// envsOf expands an index over mask's atoms into an Env.
func envOf(atoms []Atom, idx int) Env {
	var env Env
	for i, a := range atoms {
		if idx&(1<<i) != 0 {
			env |= 1 << a
		}
	}
	return env
}

var allStates = []cache.State{coherence.Invalid, coherence.Shared, coherence.Modified, coherence.Reserved}

// Check verifies the table's static well-formedness:
//
//  1. rule names are unique and non-empty;
//  2. every rule is satisfiable — enabled by some realizable
//     (state, environment) of its group;
//  3. per group, every realizable (state, environment) enables exactly
//     one rule: no overlaps (determinism) and no holes (totality over
//     the states the group's rules claim).
//
// It returns all violations, not just the first.
func (t *Table) Check() []error {
	var errs []error
	seen := make(map[string]*Rule, len(t.rules))
	for _, r := range t.rules {
		if r.Name == "" {
			errs = append(errs, fmt.Errorf("rule for %v has no name", r.Event))
			continue
		}
		if prev, dup := seen[r.Name]; dup {
			errs = append(errs, fmt.Errorf("duplicate rule name %q (%v and %v)", r.Name, prev.Event, r.Event))
			continue
		}
		seen[r.Name] = r
	}

	for _, ev := range t.Events() {
		group := t.groups[ev]
		var mask Env
		var states StateSet
		for _, r := range group {
			mask |= r.Guard.Care
			states |= r.States
		}
		atoms := maskBits(mask)
		satisfied := make(map[*Rule]bool, len(group))
		for _, st := range allStates {
			if !states.Has(st) {
				// No rule in the group claims this state: the event cannot
				// be observed there (or the table is wrong — conformance
				// will say). Totality is only demanded over claimed states.
				continue
			}
			for idx := 0; idx < 1<<len(atoms); idx++ {
				env := envOf(atoms, idx)
				if !consistent(ev, st, env, mask) {
					continue
				}
				var matched []*Rule
				for _, r := range group {
					if r.States.Has(st) && r.Guard.Matches(env) {
						matched = append(matched, r)
						satisfied[r] = true
					}
				}
				if len(matched) > 1 {
					names := ""
					for _, r := range matched {
						if names != "" {
							names += ", "
						}
						names += r.Name
					}
					errs = append(errs, fmt.Errorf("%v: state %v env %v enables %d rules: %s",
						ev, st, env, len(matched), names))
				}
				if len(matched) == 0 {
					errs = append(errs, fmt.Errorf("%v: state %v env %v enables no rule", ev, st, env))
				}
			}
		}
		for _, r := range group {
			if !satisfied[r] {
				errs = append(errs, fmt.Errorf("rule %s is unsatisfiable: no realizable (state, env) enables it", r.Name))
			}
		}
	}
	return errs
}
