package mc

import "multicube/internal/topology"

// This file implements the partial-order reduction of the explorer: a
// classification of kernel-event transitions, the independence of a
// device-latency enqueue from the other enabled transitions, and the
// persistent-set eager-firing rule (the successor of PR 1's ample rule).
//
// Two transitions are independent when firing them in either order from
// any state where both are enabled reaches the same state, and neither
// enables or disables the other. The only transitions this machine can
// prove independent cheaply are device-latency enqueues (EnqueueTag):
// their sole effect is appending an operation to one per-source bus
// queue. An enqueue by issuer I onto bus B is dependent with:
//
//   - another enqueue onto B by the same issuer (per-source FIFO order is
//     hardware; the dispatch order of the two events decides it),
//   - a deferred grant on B (the enqueue order decides whether the
//     operation reaches that arbitration),
//   - a delivery on any bus I is attached to (snoop handlers issue
//     zero-latency responses inline, so the delivery may race a same-
//     source enqueue onto B), and
//   - a processor step on node I (it may likewise enqueue from I).
//
// Everything else commutes with it. PR 1's ample rule treated every
// delivery and every processor step as conflicting; the attachment
// refinement is what lets the persistent rule fire eagerly across
// independent columns of the grid.

// Transition classes.
const (
	tkOther uint8 = iota
	tkEnqueue
	tkGrant
	tkDeliver
	tkStep
)

// tagClass describes one transition to the reduction: its class, the bus
// it acts on (rows 0..N-1, columns N..2N-1; -1 unknown), and the
// coordinate of the agent it acts as (enqueue issuer or stepping
// processor's node; Row -1 for a memory module).
type tagClass struct {
	kind uint8
	bus  int
	at   topology.Coord
}

// attachedTo reports whether the agent at coordinate at is attached to
// bus busIdx on an n×n machine. Memory modules (Row -1) sit only on
// their column bus.
func attachedTo(n int, at topology.Coord, busIdx int) bool {
	if busIdx < 0 {
		return true // unknown bus: assume attached
	}
	if busIdx < n {
		return at.Row == busIdx
	}
	return at.Col == busIdx-n
}

// dependent reports whether the enqueue e is dependent with transition o
// by the four cases above; tkOther is dependent with everything. Eager
// firing skips the states between, which is sound solely for enqueues
// (invisible to every oracle), so these are the only pairs the relation
// answers.
func dependent(n int, e, o tagClass) bool {
	switch o.kind {
	case tkEnqueue:
		return o.bus == e.bus && o.at == e.at
	case tkGrant:
		return o.bus == e.bus
	case tkDeliver:
		return attachedTo(n, e.at, o.bus)
	case tkStep:
		return o.at == e.at
	}
	return true
}

// persistentIndex finds a candidate whose singleton set is persistent
// under the dependence relation: an enqueue independent of every other
// enabled candidate. Firing it first loses no interleavings, so the
// chooser fires it eagerly without recording a choice point. The
// decision is a pure function of the candidate set, so prefix replays
// reproduce it exactly.
func persistentIndex(n int, classes []tagClass) int {
	for i, c := range classes {
		if c.kind != tkEnqueue {
			continue
		}
		ok := true
		for j, o := range classes {
			if j != i && dependent(n, c, o) {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}
