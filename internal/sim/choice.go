package sim

// This file is the choice-point seam of the model checker (internal/mc).
//
// Without a Chooser the kernel dispatches the earliest event, equal
// times in scheduling order, and a bus grants its queue per arbitration
// policy: the timed discrete-event simulation. Installing a Chooser
// switches to the explorer's untimed search, in which a message may take
// arbitrarily long: every pending event is a dispatch candidate, a bus
// defers each grant to its own event so that every waiting requester
// reaches arbitration, and the Chooser decides every ordering.

// ChoicePoint identifies one nondeterministic decision offered to a
// Chooser.
type ChoicePoint struct {
	// Kind is the decision class: "sched" for kernel event dispatch
	// order, "grant" for bus arbitration among queued requesters.
	Kind string
	// Name localizes the decision (a bus name; empty for the kernel).
	Name string
}

// Candidate is one alternative at a choice point.
type Candidate struct {
	// Tag is the scheduling tag of the underlying event or the queued
	// bus packet; model checkers use it to classify and fingerprint the
	// alternative.
	Tag any
}

// Chooser resolves nondeterministic orderings. Choose must return an
// index in [0, len(cands)); it is called only when len(cands) > 1. The
// candidate order is deterministic: (time, sequence) order for "sched",
// arbitration-policy order for "grant", so index 0 is the pick the timed
// simulation would make from the same candidates.
type Chooser interface {
	Choose(cp ChoicePoint, cands []Candidate) int
}

// DispatchObserver is an optional extension of Chooser: when the
// installed chooser also implements it, the kernel reports every
// dispatched event's tag — including single-candidate dispatches that
// never reach Choose. Model checkers use the stream to maintain state
// that must track execution rather than choice points alone (the
// sleep-set reduction removes a slept transition when a dependent
// transition fires, whether or not that firing was a real choice).
type DispatchObserver interface {
	Dispatched(tag any)
}
