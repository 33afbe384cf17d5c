package mc

import "multicube/internal/topology"

// This file implements the partial-order machinery of the explorer: a
// classification of kernel-event transitions, a conservative independence
// relation between them, the persistent-set eager-firing rule (the
// successor of PR 1's ample rule), and sleep sets.
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
// refinement is what lets the persistent rule fire eagerly — and the
// sleep sets prune — across independent columns of the grid.

// Transition classes.
const (
	tkOther uint8 = iota
	tkEnqueue
	tkGrant
	tkDeliver
	tkStep
)

// tagClass describes one transition to the reduction: its class, the bus
// it acts on (rows 0..N-1, columns N..2N-1; -1 unknown), the coordinate
// of the agent it acts as (enqueue issuer or stepping processor's node;
// Row -1 for a memory module), and a content fingerprint stable across
// replays of the same state, used as the transition's identity in sleep
// sets.
type tagClass struct {
	kind uint8
	bus  int
	at   topology.Coord
	fp   uint64
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

// disjointBuses reports that two known, distinct buses share no agent:
// two different row buses touch disjoint node sets, as do two different
// column buses (each column has its own nodes and its own memory
// module). A row and a column bus always share the node at their
// intersection.
func disjointBuses(n, b1, b2 int) bool {
	if b1 < 0 || b2 < 0 || b1 == b2 {
		return false
	}
	return (b1 < n) == (b2 < n)
}

// dependent is the conservative dependence relation; tkOther is
// dependent with everything. Beyond the enqueue cases above, grants and
// deliveries on disjoint-agent buses commute (each touches only its own
// bus's state and its own agents' nodes; cross-bus enqueues they trigger
// come from different sources, and per-source queue order is all the bus
// state keeps), and a grant or delivery commutes with a processor step
// on a node not attached to its bus (the step touches only its own
// node's cache and schedules latency events; the delivery's purges and
// completions touch only attached nodes).
//
// Only the sleep-set half of the reduction may use the non-enqueue
// cases: eager-firing skips intermediate states, which is sound solely
// for enqueues (invisible to every oracle), while sleep sets still visit
// every reachable state and merely prune redundant transition orders.
// persistentIndex only ever queries enqueue pairs, so the refinement
// stays on the safe side of that line.
func dependent(n int, a, b tagClass) bool {
	if a.kind == tkOther || b.kind == tkOther {
		return true
	}
	if b.kind < a.kind {
		a, b = b, a
	}
	// From here a.kind <= b.kind with the order enqueue < grant < deliver
	// < step.
	switch {
	case a.kind == tkEnqueue && b.kind == tkEnqueue:
		return a.bus == b.bus && a.at == b.at
	case a.kind == tkEnqueue && b.kind == tkGrant:
		return a.bus == b.bus
	case a.kind == tkEnqueue && b.kind == tkDeliver:
		return attachedTo(n, a.at, b.bus)
	case a.kind == tkEnqueue && b.kind == tkStep:
		return a.at == b.at
	case b.kind == tkGrant || b.kind == tkDeliver:
		// grant-grant, grant-deliver, deliver-deliver.
		return !disjointBuses(n, a.bus, b.bus)
	case b.kind == tkStep && a.kind != tkStep:
		// grant-step, deliver-step.
		return attachedTo(n, b.at, a.bus)
	case a.kind == tkStep && b.kind == tkStep:
		return a.at == b.at
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

// sleepSet is the set of transitions that need not be fired from the
// current state because a sibling branch already explores them and every
// transition executed since commutes with them. Sets are tiny (almost
// always under four entries), so linear scans beat anything clever. A set
// is never mutated once made: takes, work items and the chooser share
// them, and every new one is a piece of a sleepChunk.
type sleepSet []tagClass

func (s sleepSet) contains(fp uint64) bool {
	for _, u := range s {
		if u.fp == fp {
			return true
		}
	}
	return false
}

// afterExec removes every member dependent with the just-executed
// transition t; their commutation guarantee ends here. The receiver is
// never mutated: a set that loses a member is carved anew from c.
func (s sleepSet) afterExec(n int, t tagClass, c *sleepChunk) sleepSet {
	for _, u := range s {
		if dependent(n, u, t) {
			return c.carve(n, t, s, nil)
		}
	}
	return s
}

// fps fills dst with the members' identity fingerprints, sorted, for
// visited-set storage and subset comparison. Sets are tiny, so an
// insertion sort is the cheapest.
func (s sleepSet) fps(dst []uint64) []uint64 {
	dst = dst[:0]
	for _, u := range s {
		i := len(dst)
		dst = append(dst, u.fp)
		for ; i > 0 && dst[i-1] > u.fp; i-- {
			dst[i] = dst[i-1]
		}
		dst[i] = u.fp
	}
	return dst
}

// childSleep carves from c the sleep set a sibling branch starts with
// after taking pick: every member of the parent's sleep set plus every
// sibling explored before it, filtered to the ones independent of pick.
func childSleep(n int, base sleepSet, done []tagClass, pick tagClass, c *sleepChunk) sleepSet {
	return c.carve(n, pick, base, done)
}

// sleepChunk is the array a worker's new sleep sets are carved from, a
// piece per set. Each piece is a full slice expression, so no append to
// it can reach a neighbour. A chunk is never reset, only replaced when
// full: work items on the frontier keep the pieces carved for them.
type sleepChunk []tagClass

const sleepChunkLen = 16

// carve returns the members of a, then of b, independent of t as a new
// piece, nil when there are none.
func (c *sleepChunk) carve(n int, t tagClass, a, b []tagClass) sleepSet {
	if cap(*c)-len(*c) < len(a)+len(b) {
		*c = make(sleepChunk, 0, max(len(a)+len(b), sleepChunkLen))
	}
	start := len(*c)
	for _, s := range [2][]tagClass{a, b} {
		for _, u := range s {
			if !dependent(n, u, t) {
				*c = append(*c, u)
			}
		}
	}
	if end := len(*c); end > start {
		return sleepSet((*c)[start:end:end])
	}
	return nil
}
