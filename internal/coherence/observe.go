package coherence

import (
	"multicube/internal/cache"
	"multicube/internal/mlt"
	"multicube/internal/topology"
)

// This file is the conformance-observation seam: a passive hook that
// reports every controller transition — the snooped bus operation, the
// controller-local state before and after, and the bus operations the
// handler scheduled in response — to an external observer. The spec
// tables of internal/protocol replay these events against the paper's
// guarded-action rules.
//
// The seam is deliberately inert: it allocates and copies only when an
// Observer is installed, never mutates protocol state, and is invisible
// to fingerprints (like OpLog). Explorer verdicts are identical with and
// without it.

// LineView is a controller-local snapshot of everything bearing on one
// line: the snooping-cache entry, the column's modified-line-table
// membership, the outstanding processor request, and the writeback
// continuation.
type LineView struct {
	// State is the snooping-cache mode of the line (Invalid if absent).
	State  cache.State
	Pinned bool
	// MLTHas reports membership in the node's column's table.
	MLTHas bool
	// LockWord and LinkWord are the synchronization words of the cached
	// copy; zero when the line is absent.
	LockWord uint64
	LinkWord uint64
	// HasPend and the Pend* fields describe the one outstanding
	// processor transaction, if any.
	HasPend      bool
	PendTxn      Txn
	PendFlags    Flags
	PendLine     cache.Line
	PendPoisoned bool
	PendQueued   bool
	// PendMatches reports that the outstanding transaction matches the
	// observed operation's (Txn, Line) — the reply-acceptance test.
	PendMatches bool
	// WBCont reports an outstanding writeback continuation.
	WBCont bool
}

// ActionIntent is one bus operation a handler scheduled while snooping:
// either issued immediately or enqueued behind a device latency.
type ActionIntent struct {
	Dim    Dim
	Txn    Txn
	Flags  Flags
	Line   cache.Line
	Target topology.Coord
	// HasData distinguishes data-carrying operations from
	// address-and-command ones.
	HasData bool
}

// SnoopEvent is one observed controller transition: node identity, the
// delivered operation (with its probe-phase wire signals as latched at
// delivery), the before/after line views, and the scheduled actions.
type SnoopEvent struct {
	Node topology.Coord
	Dim  Dim

	// The operation's bus fields.
	Txn     Txn
	Flags   Flags
	Line    cache.Line
	Origin  topology.Coord
	Target  topology.Coord
	HasData bool

	// Home reports that Node sits on Line's home column.
	Home bool

	// Addressed reports that the delivery table (deliver.go) addresses
	// the operation to Node: the snooper enters Node when no Observer is
	// installed (DESIGN.md §5 decision 11). The Observer's walk enters
	// every node on the bus; at one not addressed the dispatch must
	// change nothing.
	Addressed bool

	// Probe-phase wire signals.
	Modified     bool
	ClaimantSelf bool
	Suppressed   bool
	WillServe    bool
	Serves       bool // Node asserted will-serve
	Overflow     bool // the operation's table insert displaced a line

	// Snarfable reports that the snarf optimization could capture this
	// operation's payload at this node (a pre-state property: enabled,
	// READ data, retained invalid tag, payload newer than the last
	// purge).
	Snarfable bool

	Before LineView
	After  LineView
	// StatsBefore and StatsAfter are Node's counters around the dispatch.
	StatsBefore, StatsAfter NodeStats

	Actions []ActionIntent
}

// lineView builds the controller-local view of op's line.
func (n *Node) lineView(op *Op) LineView {
	v := LineView{MLTHas: n.sys.mlt.Contains(n.id.Col, mlt.Line(op.Line)), WBCont: n.wbCont != nil}
	if e, ok := n.l2.Lookup(op.Line); ok {
		v.State = e.State
		v.Pinned = e.Pinned
		v.LockWord = e.Data[LockWord]
		v.LinkWord = e.Data[LinkWord]
	}
	if p := n.pend; p != nil {
		v.HasPend = true
		v.PendTxn = p.txn
		v.PendFlags = p.flags
		v.PendLine = p.line
		v.PendPoisoned = p.poisoned
		v.PendQueued = p.queued
		v.PendMatches = p.line == op.Line && p.txn == op.Txn
	}
	return v
}

// observeSnoop dispatches op with the action-intent sink armed and
// reports the transition to the installed Observer; tabled: applyTable ran.
func (n *Node) observeSnoop(dim Dim, op *Op, addressed, tabled bool) {
	s := n.sys
	ev := SnoopEvent{
		Node:         n.id,
		Dim:          dim,
		Txn:          op.Txn,
		Flags:        op.Flags,
		Line:         op.Line,
		Origin:       op.Origin,
		Target:       op.Target,
		HasData:      op.Data != nil,
		Home:         n.onHomeColumn(op.Line),
		Addressed:    addressed,
		Modified:     op.modified,
		ClaimantSelf: op.modified && op.claimant == n.id,
		Suppressed:   op.suppressed,
		WillServe:    op.servers != 0,
		Serves:       dim == Col && op.servers&(1<<n.id.Row) != 0,
		Overflow:     op.overflow,
		Snarfable:    n.snarfEligible(op),
		Before:       n.lineView(op),
		StatsBefore:  n.stats,
	}
	if tabled {
		ev.Before.MLTHas = op.mltHad
	}
	prev := s.obsSink
	s.obsSink = &ev.Actions
	n.snoop(dim, op)
	s.obsSink = prev
	ev.After = n.lineView(op)
	ev.StatsAfter = n.stats
	s.Observer(ev)
}

// recordIntent appends one scheduled bus operation to the active snoop
// window's event, if any. Called from the issue helpers; outside a snoop
// window the sink is nil and this is a no-op.
func (s *System) recordIntent(dim Dim, op *Op) {
	if s.obsSink == nil {
		return
	}
	*s.obsSink = append(*s.obsSink, ActionIntent{
		Dim:     dim,
		Txn:     op.Txn,
		Flags:   op.Flags,
		Line:    op.Line,
		Target:  op.Target,
		HasData: op.Data != nil,
	})
}

// snarfEligible reports whether snarf would capture op's payload at this
// node; snarf itself and the conformance observer share the predicate so
// the spec cannot drift from the implementation.
func (n *Node) snarfEligible(op *Op) bool {
	if !n.sys.cfg.Snarf || op.Txn != READ || op.Data == nil {
		return false
	}
	e := n.l2.Probe(op.Line)
	if e == nil || e.State != Invalid || e.Pinned {
		return false
	}
	if t, ok := n.purgedAt.Get(uint64(op.Line)); ok && op.born <= t {
		// The payload predates our invalidation of this line: it may be
		// stale ("only if the line is in global state unmodified").
		return false
	}
	return true
}
