// Package protocol expresses the Appendix A cache consistency protocol
// (plus the Section 4 synchronization extensions) as data: a table of
// guarded-action rules, one per distinguishable controller response to a
// snooped bus operation. Each rule names the observed event (bus
// dimension, transaction, operation parameters), the controller states it
// applies to, a guard — a conjunction over a small vocabulary of
// predicates the hardware can evaluate during the probe phase — and the
// prescribed response: the bus operations to schedule, the next cache
// state of the line, and the modified-line-table effect.
//
// The table serves three masters:
//
//   - Static well-formedness: Check proves every rule satisfiable and
//     every reachable (state, environment) matched by exactly one rule —
//     the "exactly one enabled guard" determinism obligation.
//   - Conformance: the Conformance observer replays every transition the
//     hand-written internal/coherence handlers take (via the
//     coherence.System.Observer seam) against the table and reports any
//     divergence, plus per-rule coverage.
//   - Documentation: the table is the protocol, in a form a reader can
//     diff against the paper's formal description.
//
// The package deliberately depends only on internal/coherence's exported
// observation types, never on handler internals: it is a second,
// independent encoding of the protocol, which is what makes conformance
// checking meaningful.
package protocol

import (
	"fmt"
	"sort"

	"multicube/internal/cache"
	"multicube/internal/coherence"
)

// Atom is one predicate of the guard vocabulary, evaluated from a
// coherence.SnoopEvent: the operation's routing fields, the probe-phase
// wire signals, and the controller-local line view.
type Atom uint8

const (
	// AtomOrigin: this node originated the operation.
	AtomOrigin Atom = iota
	// AtomSameRow / AtomSameCol: this node shares a row (column) bus with
	// the originator.
	AtomSameRow
	AtomSameCol
	// AtomHome: this node sits on the line's home (memory-interleave)
	// column.
	AtomHome
	// AtomMLTHas: its column's modified line table holds the line (before
	// the operation).
	AtomMLTHas
	// AtomSuppressed: the row-bus modified-line signal was suppressed by
	// fault injection at probe time.
	AtomSuppressed
	// AtomClaimantSelf: this node won the claim to forward the request
	// (the hardware priority chain of duplicated table entries).
	AtomClaimantSelf
	// AtomModifiedWire: the wired-OR row-bus modified-line signal.
	AtomModifiedWire
	// AtomPendRead: this node has a READ of the line outstanding (matching
	// the operation or not) — one a purge poisons.
	AtomPendRead
	// AtomWillServe: the wired-OR column-bus signal asserted by the node
	// that will answer this REQUEST|REMOVE.
	AtomWillServe
	// AtomLockFree: the cached copy's lock word is zero. Vacuously true
	// when the line is absent.
	AtomLockFree
	// AtomLinkFree: no admitted successor is linked through this copy —
	// the link word is protocol-owned only while the copy is pinned
	// (sync state live); on an ordinary data line word 1 is just data.
	// Vacuously true when the line is absent.
	AtomLinkFree
	// AtomQueuedTail: this node's reserved copy is an admitted member —
	// and thus the tail — of the line's SYNC queue.
	AtomQueuedTail
	// AtomTargetSelf / AtomTargetSameCol: this node is (shares a column
	// with) the XFER handoff target.
	AtomTargetSelf
	AtomTargetSameCol
	// AtomPendMatch: the outstanding processor transaction matches the
	// operation's (transaction, line) — the reply-acceptance test.
	AtomPendMatch
	// AtomPendPoisoned: the matching outstanding READ was poisoned by an
	// invalidating broadcast while its reply was in flight.
	AtomPendPoisoned
	// AtomPendQueued: the matching outstanding SYNC was admitted to the
	// distributed queue.
	AtomPendQueued
	// AtomSnarfable: the snarf optimization would capture this
	// operation's payload at this node.
	AtomSnarfable
	// AtomServes: this node asserted will-serve.
	AtomServes
	AtomOverflow // the operation's insert displaced a line from the column's table

	numAtoms
)

var atomNames = [...]string{
	"Origin", "SameRow", "SameCol", "Home", "MLTHas", "Suppressed",
	"ClaimantSelf", "ModifiedWire", "PendRead", "WillServe",
	"LockFree", "LinkFree", "QueuedTail", "TargetSelf", "TargetSameCol",
	"PendMatch", "PendPoisoned", "PendQueued", "Snarfable", "Serves", "Overflow",
}

func (a Atom) String() string {
	if int(a) < len(atomNames) {
		return atomNames[a]
	}
	return fmt.Sprintf("Atom(%d)", uint8(a))
}

// Env is a truth assignment to the atoms, as a bitmask.
type Env uint32

// Has reports the truth value of atom a.
func (e Env) Has(a Atom) bool { return e&(1<<a) != 0 }

// With returns e with atom a set to v.
func (e Env) With(a Atom, v bool) Env {
	if v {
		return e | 1<<a
	}
	return e &^ (1 << a)
}

// String renders only the true atoms, sorted, for diagnostics.
func (e Env) String() string {
	s := ""
	for a := Atom(0); a < numAtoms; a++ {
		if e.Has(a) {
			if s != "" {
				s += "∧"
			}
			s += a.String()
		}
	}
	if s == "" {
		return "⊤"
	}
	return s
}

// Lit is one literal of a guard: an atom required true or false.
type Lit struct {
	Atom Atom
	Val  bool
}

// Y and N build positive and negative literals.
func Y(a Atom) Lit { return Lit{Atom: a, Val: true} }
func N(a Atom) Lit { return Lit{Atom: a, Val: false} }

// Guard is a conjunction of literals: Care marks the atoms constrained,
// Val their required values. The empty guard (Care == 0) always matches.
type Guard struct {
	Care Env
	Val  Env
}

// G builds a guard from literals.
func G(lits ...Lit) Guard {
	var g Guard
	for _, l := range lits {
		g.Care |= 1 << l.Atom
		if l.Val {
			g.Val |= 1 << l.Atom
		}
	}
	return g
}

// Matches reports whether env satisfies the guard.
func (g Guard) Matches(env Env) bool { return env&g.Care == g.Val }

// String renders the guard's literals.
func (g Guard) String() string {
	s := ""
	for a := Atom(0); a < numAtoms; a++ {
		if g.Care.Has(a) {
			if s != "" {
				s += " ∧ "
			}
			if !g.Val.Has(a) {
				s += "¬"
			}
			s += a.String()
		}
	}
	if s == "" {
		return "⊤"
	}
	return s
}

// Event identifies one observable bus-operation kind: the bus dimension,
// the transaction, and the operation-parameter flags with ALLOC stripped
// (the ALLOCATE variant changes only whether a reply carries data, never
// the control flow the table describes).
type Event struct {
	Dim   coherence.Dim
	Txn   coherence.Txn
	Flags coherence.Flags
}

func (e Event) String() string {
	return fmt.Sprintf("%v %v(%v)", e.Dim, e.Txn, e.Flags)
}

// EventOf extracts the table's event key from an observed transition.
func EventOf(ev *coherence.SnoopEvent) Event {
	return Event{Dim: ev.Dim, Txn: ev.Txn, Flags: ev.Flags &^ coherence.ALLOC}
}

// EnvOf evaluates every atom against an observed transition.
func EnvOf(ev *coherence.SnoopEvent) Env {
	var e Env
	set := func(a Atom, v bool) {
		if v {
			e |= 1 << a
		}
	}
	set(AtomOrigin, ev.Origin == ev.Node)
	set(AtomSameRow, ev.Origin.Row == ev.Node.Row)
	set(AtomSameCol, ev.Origin.Col == ev.Node.Col)
	set(AtomHome, ev.Home)
	set(AtomMLTHas, ev.Before.MLTHas)
	set(AtomSuppressed, ev.Suppressed)
	set(AtomClaimantSelf, ev.ClaimantSelf)
	set(AtomModifiedWire, ev.Modified)
	set(AtomPendRead, ev.Before.HasPend && ev.Before.PendTxn == coherence.READ && ev.Before.PendLine == ev.Line)
	set(AtomWillServe, ev.WillServe)
	set(AtomLockFree, ev.Before.LockWord == 0)
	set(AtomLinkFree, !ev.Before.Pinned || ev.Before.LinkWord == 0)
	set(AtomQueuedTail, ev.Before.HasPend && ev.Before.PendTxn == coherence.SYNC &&
		ev.Before.PendLine == ev.Line && ev.Before.PendQueued)
	set(AtomTargetSelf, ev.Target == ev.Node)
	set(AtomTargetSameCol, ev.Target.Col == ev.Node.Col)
	set(AtomPendMatch, ev.Before.PendMatches)
	set(AtomPendPoisoned, ev.Before.PendMatches && ev.Before.PendPoisoned)
	set(AtomPendQueued, ev.Before.PendMatches && ev.Before.PendQueued)
	set(AtomSnarfable, ev.Snarfable)
	set(AtomServes, ev.Serves)
	set(AtomOverflow, ev.Overflow)
	return e
}

// StateSet is a set of cache states, as a bitmask indexed by cache.State.
type StateSet uint8

// AnyState contains all four states.
const AnyState StateSet = 1<<coherence.Invalid | 1<<coherence.Shared | 1<<coherence.Modified | 1<<coherence.Reserved

// S builds a state set.
func S(states ...cache.State) StateSet {
	var s StateSet
	for _, st := range states {
		s |= 1 << st
	}
	return s
}

// Has reports membership.
func (s StateSet) Has(st cache.State) bool { return s&(1<<st) != 0 }

func (s StateSet) String() string {
	if s == AnyState {
		return "*"
	}
	out := ""
	for st := coherence.Invalid; st <= coherence.Reserved; st++ {
		if s.Has(st) {
			if out != "" {
				out += "|"
			}
			out += coherence.StateName(st)
		}
	}
	if out == "" {
		return "∅"
	}
	return out
}

// ActionSpec is one bus operation a rule prescribes for the observed
// line. ALLOC is stripped for comparison, like in Event.
type ActionSpec struct {
	Dim   coherence.Dim
	Txn   coherence.Txn
	Flags coherence.Flags
}

func (a ActionSpec) String() string {
	return fmt.Sprintf("%v %v(%v)", a.Dim, a.Txn, a.Flags)
}

// NextKind classifies a rule's next-state prescription.
type NextKind uint8

const (
	// NextSame: the line's cache state is unchanged.
	NextSame NextKind = iota
	// NextTo: the line transitions to Next.State.
	NextTo
	// NextAny: the rule does not constrain the next state (used where a
	// continuation outside the table's scope — a writeback "continue
	// request" — decides it).
	NextAny
)

// Next is a rule's next-state prescription.
type Next struct {
	Kind  NextKind
	State cache.State
}

func (n Next) String() string {
	switch n.Kind {
	case NextTo:
		return "→" + coherence.StateName(n.State)
	case NextAny:
		return "→*"
	default:
		return "→same"
	}
}

// MLTNext is a rule's prescription for the node's modified-line-table
// membership of the observed line after dispatch.
type MLTNext uint8

const (
	// MLTSame: membership unchanged.
	MLTSame MLTNext = iota
	// MLTAbsent: the entry must be gone (REMOVE semantics).
	MLTAbsent
	// MLTPresent: the entry must be present (INSERT semantics).
	MLTPresent
)

// Rule is one guarded-action row of the protocol table.
type Rule struct {
	// Name uniquely identifies the rule; Doc cites the protocol clause it
	// encodes.
	Name string
	Doc  string
	// Event is the observed bus-operation kind; States the controller
	// states the rule covers (zero normalizes to AnyState); Guard the
	// enabling conjunction.
	Event  Event
	States StateSet
	Guard  Guard
	// Actions are the bus operations the rule prescribes for the observed
	// line, as a multiset (scheduling order is a timing concern, not a
	// protocol one).
	Actions []ActionSpec
	// Next and MLT prescribe the line's cache state and table membership
	// after dispatch.
	Next Next
	MLT  MLTNext
	// SideTraffic permits bus operations for other lines during this
	// transition (modified-line-table overflow writebacks, writeback
	// continuations).
	SideTraffic bool
	// Unreachable, when non-empty, documents why no bundled explorer
	// preset exercises the rule (a fault-injection-only path, a race the
	// simulator's timing model cannot produce, or a defensive row whose
	// triggering condition is independently a checker violation). The
	// conformance harness treats exercising an annotated rule as a hard
	// failure: the annotation must then be re-justified or removed.
	Unreachable string
}

func (r *Rule) String() string {
	return fmt.Sprintf("%s: %v [%v] %v", r.Name, r.Event, r.States, r.Guard)
}

// Table is an ordered rule set with an event-group index.
type Table struct {
	rules  []*Rule
	groups map[Event][]*Rule
}

// New builds a table, normalizing empty state sets to AnyState.
func New(rules []*Rule) *Table {
	t := &Table{rules: rules, groups: make(map[Event][]*Rule)}
	for _, r := range rules {
		if r.States == 0 {
			r.States = AnyState
		}
		t.groups[r.Event] = append(t.groups[r.Event], r)
	}
	return t
}

// Rules returns the table's rows in declaration order.
func (t *Table) Rules() []*Rule { return t.rules }

// Group returns the rules for one event, in declaration order.
func (t *Table) Group(ev Event) []*Rule { return t.groups[ev] }

// Events returns the table's event keys, sorted for determinism.
func (t *Table) Events() []Event {
	evs := make([]Event, 0, len(t.groups))
	for ev := range t.groups {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Dim != b.Dim {
			return a.Dim < b.Dim
		}
		if a.Txn != b.Txn {
			return a.Txn < b.Txn
		}
		return a.Flags < b.Flags
	})
	return evs
}

// Match returns the unique rule enabled for the event in (state, env), or
// false if the event has no group or no rule matches. Check guarantees
// uniqueness, so first-match is the match.
func (t *Table) Match(ev Event, st cache.State, env Env) (*Rule, bool) {
	for _, r := range t.groups[ev] {
		if r.States.Has(st) && r.Guard.Matches(env) {
			return r, true
		}
	}
	return nil, false
}
