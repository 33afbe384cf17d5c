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

// ChoiceKind is the decision class of a choice point.
type ChoiceKind uint8

const (
	// Sched is kernel event dispatch order.
	Sched ChoiceKind = iota
	// Grant is bus arbitration among queued requesters.
	Grant
)

// ChoicePoint identifies one nondeterministic decision offered to a
// Chooser.
type ChoicePoint struct {
	Kind ChoiceKind
}

// Candidate is one alternative at a choice point.
type Candidate struct {
	// Tag is the scheduling tag of the underlying event or the queued
	// bus packet; model checkers use it to classify the alternative.
	Tag any
}

// Chooser resolves nondeterministic orderings. Choose must return an
// index in [0, len(cands)); it is called only when len(cands) > 1. The
// candidate order is deterministic: (time, sequence) order for Sched,
// arbitration-policy order for Grant, so index 0 is the pick the timed
// simulation would make from the same candidates.
type Chooser interface {
	Choose(cp ChoicePoint, cands []Candidate) int
}
