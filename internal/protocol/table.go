package protocol

import (
	"fmt"

	"multicube/internal/cache"
	"multicube/internal/coherence"
)

// This file is the Wisconsin Multicube protocol, Appendix A plus the
// Section 4 synchronization transactions, written as data. Every rule
// corresponds to one arm of the hand-written handlers in
// internal/coherence (handlers.go, sync.go, node.go); the Doc strings
// cite the protocol clause. The conformance harness replays real
// controller transitions against this table, so any drift between the
// two encodings — a forgotten forward, a wrong next state, a missing
// table update — is a test failure, not a latent bug.

const (
	rowBus = coherence.Row
	colBus = coherence.Col

	rd = coherence.READ
	rm = coherence.READMOD
	wb = coherence.WRITEBACK
	ts = coherence.TAS
	sy = coherence.SYNC

	fREQ  = coherence.REQUEST
	fRPL  = coherence.REPLY
	fINS  = coherence.INSERT
	fREM  = coherence.REMOVE
	fUPD  = coherence.UPDATE
	fPUR  = coherence.PURGE
	fNOP  = coherence.NOPURGE
	fMEM  = coherence.MEMORY
	fFAIL = coherence.FAIL
	fXFER = coherence.XFER
	fQD   = coherence.QUEUED

	inv = coherence.Invalid
	shd = coherence.Shared
	mod = coherence.Modified
	res = coherence.Reserved
)

func ev(d coherence.Dim, t coherence.Txn, f coherence.Flags) Event {
	return Event{Dim: d, Txn: t, Flags: f}
}

func act(d coherence.Dim, t coherence.Txn, f coherence.Flags) ActionSpec {
	return ActionSpec{Dim: d, Txn: t, Flags: f}
}

var stay = Next{Kind: NextSame}
var wild = Next{Kind: NextAny}

func to(s cache.State) Next { return Next{Kind: NextTo, State: s} }

func mk(name, doc string, e Event, states StateSet, g Guard, next Next, actions ...ActionSpec) *Rule {
	return &Rule{Name: name, Doc: doc, Event: e, States: states, Guard: g, Next: next, Actions: actions}
}

func (r *Rule) mlt(m MLTNext) *Rule          { r.MLT = m; return r }
func (r *Rule) side() *Rule                  { r.SideTraffic = true; return r }
func (r *Rule) unreachable(why string) *Rule { r.Unreachable = why; return r }

// unreachableIf annotates only when cond holds — for rule groups built in
// a loop where one transaction's instance is corpus-unreachable while a
// sibling's is exercised.
func (r *Rule) unreachableIf(cond bool, why string) *Rule {
	if cond {
		r.Unreachable = why
	}
	return r
}

// Multicube builds the protocol table.
func Multicube() *Table {
	var rules []*Rule
	add := func(rs ...*Rule) { rules = append(rules, rs...) }

	for _, t := range []coherence.Txn{rd, rm, ts, sy} {
		add(rowRequestRules(t)...)
		add(colRequestRemoveRules(t)...)
		add(mk(fmt.Sprintf("col-req-mem/%v/memory-bound", t),
			"destined for the memory unit; controllers take no action",
			ev(colBus, t, fREQ|fMEM), AnyState, G(), stay))
		add(mk(fmt.Sprintf("col-insert/%v/mlt-insert", t),
			"insert an entry into the modified line table of the column",
			ev(colBus, t, fINS), AnyState, G(N(AtomOverflow)), stay).mlt(MLTPresent),
			mk(fmt.Sprintf("col-insert/%v/overflow", t),
				"the insert displaced an entry: a victim held modified here is written back as side traffic and marked shared",
				ev(colBus, t, fINS), AnyState, G(Y(AtomOverflow)), stay).mlt(MLTPresent).side().
				unreachableIf(t != rm, "only mlt-overflow-lock, mlt-churn-3x3 and half the swarm bound the table, and none of them overflows it on a READ insert (the restore of an unanswered request), a TAS insert (mlt-overflow-lock's lands in an empty table) or a SYNC insert"))
	}

	add(rowReadReplyRules()...)
	add(rowReadReplyUpdateRules()...)

	for _, t := range []coherence.Txn{rm, ts, sy} {
		add(rowOwnershipReplyRules(t)...)
		add(rowOwnershipReplyPurgeRules(t)...)
		add(colReplyInsertRules(t)...)
		add(colReplyPurgeRules(t)...)
		add(rowPurgeRules(t)...)
	}

	for _, t := range []coherence.Txn{ts, sy} {
		add(rowReplyFailRules(t)...)
		add(colReplyFailRules(t)...)
	}

	add(rowReplyQueuedRules()...)
	add(colReplyQueuedRules()...)
	add(rowXferRules()...)
	add(colXferRules()...)

	add(colReadReplyRules(fRPL|fUPD|fMEM, "reply indicating that the memory on this column should be updated", fRPL)...)
	add(colReadReplyRules(fRPL|fUPD, "reply indicating that memory should be updated (home column is elsewhere)", fRPL|fUPD)...)
	add(colReadReplyRules(fRPL|fNOP, "reply from memory; no purge is required for a READ", fRPL)...)

	for _, t := range []coherence.Txn{rd, wb} {
		add(
			mk(fmt.Sprintf("row-update/%v/forward-home", t),
				"forward the memory update request to the home column",
				ev(rowBus, t, fUPD), AnyState, G(Y(AtomHome)), stay, act(colBus, t, fUPD|fMEM)),
			mk(fmt.Sprintf("row-update/%v/bystander", t),
				"not on the home column: no action",
				ev(rowBus, t, fUPD), AnyState, G(N(AtomHome)), stay),
			mk(fmt.Sprintf("col-update-mem/%v/memory-bound", t),
				"memory write; controllers take no action",
				ev(colBus, t, fUPD|fMEM), AnyState, G(), stay),
		)
	}

	add(colWritebackRemoveRules()...)

	return New(rules)
}

// rowRequestRules: a row bus request for data is either forwarded to the
// column where the line resides in global state modified (by the one
// controller whose modified line table holds it) or answered/forwarded by
// the home-column controller.
func rowRequestRules(t coherence.Txn) []*Rule {
	e := ev(rowBus, t, fREQ)
	n := func(s string) string { return fmt.Sprintf("row-req/%v/%s", t, s) }
	rules := []*Rule{
		mk(n("suppressed-discard"),
			"fault injection suppressed the modified-line signal: discard; memory's valid bit will re-drive the request",
			e, AnyState, G(Y(AtomMLTHas), Y(AtomSuppressed)), stay).
			unreachable("requires the SuppressSignal fault-injection hook, which no bundled preset installs"),
		mk(n("mlt-lost-claim"),
			"another controller's table also holds the line (a stale duplicate) and won the claim: only the claimant forwards",
			e, AnyState, G(Y(AtomMLTHas), N(AtomSuppressed), N(AtomClaimantSelf)), stay).
			unreachable("ownership migration removes the old column's entry before the new owner's INSERT lands, so two columns never hold claimable duplicates; kept as defensive arbitration"),
		mk(n("mlt-claimant-forward"),
			"modified signal supplied during probe: forward the request onto my column for the modified copy",
			e, AnyState, G(Y(AtomMLTHas), N(AtomSuppressed), Y(AtomClaimantSelf)), stay,
			act(colBus, t, fREQ|fREM)),
		mk(n("home-modified-elsewhere"),
			"the modified-line signal is asserted: the claimant forwards; the home column stays out of it",
			e, AnyState, G(N(AtomMLTHas), Y(AtomHome), Y(AtomModifiedWire)), stay),
		mk(n("bystander"),
			"neither table holder nor home column: no action",
			e, AnyState, G(N(AtomMLTHas), N(AtomHome)), stay),
	}
	if t == rd {
		rules = append(rules,
			mk(n("home-serve-shared"),
				"the home-column controller has the line shared: it requests the row bus and sends the data itself",
				e, S(shd), G(N(AtomMLTHas), Y(AtomHome), N(AtomModifiedWire)), stay,
				act(rowBus, rd, fRPL)),
			mk(n("home-forward-memory"),
				"line unmodified and not cached here: the home-column controller forwards the request to memory",
				e, S(inv, mod, res), G(N(AtomMLTHas), Y(AtomHome), N(AtomModifiedWire)), stay,
				act(colBus, rd, fREQ|fMEM)),
		)
	} else {
		rules = append(rules,
			mk(n("home-forward-memory"),
				"line unmodified: the home-column controller forwards the request to memory (a shared copy here cannot serve an ownership request)",
				e, AnyState, G(N(AtomMLTHas), Y(AtomHome), N(AtomModifiedWire)), stay,
				act(colBus, t, fREQ|fMEM)),
		)
	}
	return rules
}

// colRequestRemoveRules: a column bus request for modified data; removing
// the modified line table entry guarantees access to the data; losing
// requests are reissued by the controller on the originator's row.
func colRequestRemoveRules(t coherence.Txn) []*Rule {
	e := ev(colBus, t, fREQ|fREM)
	n := func(s string) string { return fmt.Sprintf("col-req-rem/%v/%s", t, s) }
	served := G(Y(AtomMLTHas), Y(AtomWillServe))
	with := func(g Guard, lits ...Lit) Guard {
		g2 := G(lits...)
		return Guard{Care: g.Care | g2.Care, Val: g.Val | g2.Val}
	}
	rules := []*Rule{
		mk(n("lost-race-reissue"),
			"the table remove failed (lost race): the controller on the originator's row retransmits the request on the row bus",
			e, AnyState, G(N(AtomMLTHas), Y(AtomSameRow)), stay,
			act(rowBus, t, fREQ)).mlt(MLTAbsent),
		mk(n("lost-race-bystander"),
			"the table remove failed; not on the originator's row: no action",
			e, AnyState, G(N(AtomMLTHas), N(AtomSameRow)), stay).mlt(MLTAbsent),
		mk(n("no-server-revive"),
			"the remove succeeded but no controller will answer (admission in flight, head with successor, or stale entry): restore the entry and retransmit",
			e, AnyState, G(Y(AtomMLTHas), N(AtomWillServe), Y(AtomSameRow)), stay,
			act(colBus, t, fINS), act(rowBus, t, fREQ)).mlt(MLTAbsent).
			unreachable("the table entry follows the admitted tail's column, so a successful remove always finds a server there; reaching the revival idiom needs a refusal-restore racing a cross-column queue admission, which no bundled preset stages"),
		mk(n("no-server-bystander"),
			"the remove succeeded, nobody serves, and we are not on the originator's row: no action",
			e, AnyState, G(Y(AtomMLTHas), N(AtomWillServe), N(AtomSameRow)), stay).mlt(MLTAbsent).
			unreachable("the table entry follows the admitted tail's column, so a successful remove always finds a server there; reaching the revival idiom needs a refusal-restore racing a cross-column queue admission, which no bundled preset stages"),
		mk(n("nonholder"),
			"some other controller on this column holds (and answers for) the line",
			e, S(inv, shd), served, stay).mlt(MLTAbsent),
	}
	switch t {
	case rd:
		rules = append(rules,
			mk(n("serve-read-home"),
				"holder supplies the data, changes modified to shared, and updates memory directly (home column)",
				e, S(mod), with(served, Y(AtomLinkFree), Y(AtomHome)), to(shd),
				act(colBus, rd, fRPL|fUPD|fMEM)).mlt(MLTAbsent),
			mk(n("serve-read-row"),
				"holder on the originator's row supplies the data with a memory update along the way",
				e, S(mod), with(served, Y(AtomLinkFree), N(AtomHome), Y(AtomSameRow)), to(shd),
				act(rowBus, rd, fRPL|fUPD)).mlt(MLTAbsent),
			mk(n("serve-read-col"),
				"holder routes the data toward the requester over its column, with a memory update along the way",
				e, S(mod), with(served, Y(AtomLinkFree), N(AtomHome), N(AtomSameRow)), to(shd),
				act(colBus, rd, fRPL|fUPD)).mlt(MLTAbsent),
			mk(n("queued-head-silent"),
				"a SYNC queue runs through this copy (link word set): surrendering it would strand the queue; the request bounces until the queue drains",
				e, S(mod), with(served, N(AtomLinkFree)), stay).mlt(MLTAbsent),
		)
	case rm:
		rules = append(rules,
			mk(n("serve-readmod-col"),
				"holder invalidates its copy and transfers ownership directly on the shared column bus",
				e, S(mod), with(served, Y(AtomLinkFree), Y(AtomSameCol)), to(inv),
				act(colBus, rm, fRPL|fINS)).mlt(MLTAbsent),
			mk(n("serve-readmod-row"),
				"holder invalidates its copy and sends the line toward the requester's column via its row bus",
				e, S(mod), with(served, Y(AtomLinkFree), N(AtomSameCol)), to(inv),
				act(rowBus, rm, fRPL)).mlt(MLTAbsent),
			mk(n("queued-head-silent"),
				"a SYNC queue runs through this copy (link word set): surrendering it would strand the queue; the request bounces until the queue drains",
				e, S(mod), with(served, N(AtomLinkFree)), stay).mlt(MLTAbsent).
				unreachable("bundled presets never aim a plain ownership write at a live lock line (a store would clobber the lock word), so a READMOD never meets a queue"),
		)
	case ts:
		rules = append(rules,
			mk(n("grant-col"),
				"lock free: test-and-set succeeds at the holder; the line moves to the requester like a READMOD (shared column)",
				e, S(mod), with(served, Y(AtomLinkFree), Y(AtomLockFree), Y(AtomSameCol)), to(inv),
				act(colBus, ts, fRPL|fINS)).mlt(MLTAbsent),
			mk(n("grant-row"),
				"lock free: test-and-set succeeds at the holder; the line moves via the row bus",
				e, S(mod), with(served, Y(AtomLinkFree), Y(AtomLockFree), N(AtomSameCol)), to(inv),
				act(rowBus, ts, fRPL)).mlt(MLTAbsent),
			mk(n("fail-row"),
				"lock held: only the failure notification returns (row route); the entry is restored",
				e, S(mod), with(served, Y(AtomLinkFree), N(AtomLockFree), Y(AtomSameRow)), stay,
				act(rowBus, ts, fRPL|fFAIL), act(colBus, ts, fINS)).mlt(MLTAbsent),
			mk(n("fail-col"),
				"lock held: failure notification on the shared column bus; the entry is restored",
				e, S(mod), with(served, Y(AtomLinkFree), N(AtomLockFree), N(AtomSameRow), Y(AtomSameCol)), stay,
				act(colBus, ts, fRPL|fFAIL), act(colBus, ts, fINS)).mlt(MLTAbsent),
			mk(n("fail-remote"),
				"lock held: failure notification via the intersection controller; the entry is restored",
				e, S(mod), with(served, Y(AtomLinkFree), N(AtomLockFree), N(AtomSameRow), N(AtomSameCol)), stay,
				act(rowBus, ts, fRPL|fFAIL), act(colBus, ts, fINS)).mlt(MLTAbsent),
			mk(n("queued-head-silent"),
				"a SYNC queue runs through this copy (link word set): the queue tail answers, the head stays silent",
				e, S(mod), with(served, N(AtomLinkFree)), stay).mlt(MLTAbsent),
		)
	case sy:
		rules = append(rules,
			mk(n("handover-col"),
				"lock free, no queue: hand the line over immediately with the lock taken for the requester (shared column)",
				e, S(mod), with(served, Y(AtomLinkFree), Y(AtomLockFree), Y(AtomSameCol)), to(inv),
				act(colBus, sy, fRPL|fINS)).mlt(MLTAbsent),
			mk(n("handover-row"),
				"lock free, no queue: hand the line over via the row bus",
				e, S(mod), with(served, Y(AtomLinkFree), Y(AtomLockFree), N(AtomSameCol)), to(inv),
				act(rowBus, sy, fRPL)).mlt(MLTAbsent),
			mk(n("enqueue-row"),
				"lock held: enter the requester into the link word and notify it that it joined (row route)",
				e, S(mod), with(served, Y(AtomLinkFree), N(AtomLockFree), Y(AtomSameRow)), stay,
				act(rowBus, sy, fRPL|fQD)).mlt(MLTAbsent),
			mk(n("enqueue-col"),
				"lock held: enqueue and notify over the shared column bus",
				e, S(mod), with(served, Y(AtomLinkFree), N(AtomLockFree), N(AtomSameRow), Y(AtomSameCol)), stay,
				act(colBus, sy, fRPL|fQD)).mlt(MLTAbsent),
			mk(n("enqueue-remote"),
				"lock held: enqueue and notify via the intersection controller",
				e, S(mod), with(served, Y(AtomLinkFree), N(AtomLockFree), N(AtomSameRow), N(AtomSameCol)), stay,
				act(rowBus, sy, fRPL|fQD)).mlt(MLTAbsent),
			mk(n("queued-head-silent"),
				"a queue runs through this copy (link word set): the tail answers for this column, the head stays silent",
				e, S(mod), with(served, N(AtomLinkFree)), stay).mlt(MLTAbsent),
		)
	}
	// Reserved copies: an admitted queue tail answers (serving SYNC/TAS,
	// or bouncing READ/READMOD); a joiner whose admission is in flight
	// stays silent.
	tail := with(served, Y(AtomQueuedTail), Y(AtomLinkFree))
	switch t {
	case rd, rm:
		rules = append(rules,
			mk(n("bounce-reserved"),
				"the data is not here (reserved placeholder only), and a same-column holder would be the queue head, which keeps the line: restore the entry and retransmit until the queue drains",
				e, S(res), tail, stay,
				act(colBus, t, fINS), act(rowBus, t, fREQ)).mlt(MLTAbsent).
				unreachableIf(t == rm, "bundled presets never aim a plain ownership write at a live lock line (a store would clobber the lock word), so a READMOD never meets a queue"),
		)
	case ts:
		rules = append(rules,
			mk(n("tail-fail-row"),
				"a reserved copy means the queue is active: the lock is certainly held; fail the test-and-set and restore the entry (row route)",
				e, S(res), with(tail, Y(AtomSameRow)), stay,
				act(rowBus, ts, fRPL|fFAIL), act(colBus, ts, fINS)).mlt(MLTAbsent),
			mk(n("tail-fail-col"),
				"queue active: fail over the shared column bus and restore the entry",
				e, S(res), with(tail, N(AtomSameRow), Y(AtomSameCol)), stay,
				act(colBus, ts, fRPL|fFAIL), act(colBus, ts, fINS)).mlt(MLTAbsent),
			mk(n("tail-fail-remote"),
				"queue active: fail via the intersection controller and restore the entry",
				e, S(res), with(tail, N(AtomSameRow), N(AtomSameCol)), stay,
				act(rowBus, ts, fRPL|fFAIL), act(colBus, ts, fINS)).mlt(MLTAbsent),
		)
	case sy:
		rules = append(rules,
			mk(n("tail-enqueue-row"),
				"the admitted tail links the joiner into its reserved copy and notifies it (row route)",
				e, S(res), with(tail, Y(AtomSameRow)), stay,
				act(rowBus, sy, fRPL|fQD)).mlt(MLTAbsent),
			mk(n("tail-enqueue-col"),
				"the admitted tail links the joiner and notifies it over the shared column bus",
				e, S(res), with(tail, N(AtomSameRow), Y(AtomSameCol)), stay,
				act(colBus, sy, fRPL|fQD)).mlt(MLTAbsent),
			mk(n("tail-enqueue-remote"),
				"the admitted tail links the joiner and notifies it via the intersection controller",
				e, S(res), with(tail, N(AtomSameRow), N(AtomSameCol)), stay,
				act(rowBus, sy, fRPL|fQD)).mlt(MLTAbsent),
		)
	}
	rules = append(rules,
		mk(n("unadmitted-silent"),
			"a reserved joiner whose queue admission is still in flight stays silent (the revival idiom re-drives the request)",
			e, S(res), with(served, N(AtomQueuedTail)), stay).mlt(MLTAbsent).
			unreachableIf(t == rm, "bundled presets never aim a plain ownership write at a live lock line (a store would clobber the lock word), so a READMOD never meets a queue"),
		mk(n("linked-tail-silent"),
			"a reserved copy that already has a successor linked is no longer the tail: silent",
			e, S(res), with(served, Y(AtomQueuedTail), N(AtomLinkFree)), stay).mlt(MLTAbsent).
			unreachable("a linked former tail shares a column with a claim only when three queue members occupy one column and a fourth contender probes; no bundled preset runs that population"),
	)
	return rules
}

// rowReadReplyRules: ROW READ (REPLY) — the plain data reply form.
func rowReadReplyRules() []*Rule {
	e := ev(rowBus, rd, fRPL)
	n := func(s string) string { return "row-reply/READ/" + s }
	return []*Rule{
		mk(n("install"),
			"the originator writes the line shared and completes the read",
			e, AnyState, G(Y(AtomOrigin), Y(AtomPendMatch), N(AtomPendPoisoned)), to(shd)),
		mk(n("poisoned-reissue"),
			"an invalidating broadcast overtook the reply: the data is stale; discard it and retry the request",
			e, AnyState, G(Y(AtomOrigin), Y(AtomPendMatch), Y(AtomPendPoisoned)), stay,
			act(rowBus, rd, fREQ)),
		mk(n("stray"),
			"a reply nobody is waiting for is discarded",
			e, AnyState, G(Y(AtomOrigin), N(AtomPendMatch)), stay).
			unreachable("a stray reply is independently a stray-reply violation in the explorer's step check"),
		mk(n("snarf"),
			"a bystander with a retained invalid tag captures the passing unmodified line (Section 3)",
			e, S(inv), G(N(AtomOrigin), Y(AtomSnarfable)), to(shd)),
		mk(n("bystander"),
			"not the originator, nothing to snarf: no action",
			e, AnyState, G(N(AtomOrigin), N(AtomSnarfable)), stay),
	}
}

// rowReadReplyUpdateRules: ROW READ (REPLY, UPDATE) — as the plain form,
// but the home-column controller additionally writes the line back to
// memory, whatever its own role in the transaction.
func rowReadReplyUpdateRules() []*Rule {
	e := ev(rowBus, rd, fRPL|fUPD)
	n := func(s string) string { return "row-reply-upd/READ/" + s }
	upd := act(colBus, rd, fUPD|fMEM)
	return []*Rule{
		mk(n("install-home"),
			"the originator installs the line shared and, being on the home column, forwards the memory update",
			e, AnyState, G(Y(AtomOrigin), Y(AtomPendMatch), N(AtomPendPoisoned), Y(AtomHome)), to(shd), upd),
		mk(n("install"),
			"the originator installs the line shared and completes the read",
			e, AnyState, G(Y(AtomOrigin), Y(AtomPendMatch), N(AtomPendPoisoned), N(AtomHome)), to(shd)),
		mk(n("poisoned-reissue-home"),
			"stale data: retry the request; the memory update still happens (the data is current for memory)",
			e, AnyState, G(Y(AtomOrigin), Y(AtomPendMatch), Y(AtomPendPoisoned), Y(AtomHome)), stay,
			act(rowBus, rd, fREQ), upd),
		mk(n("poisoned-reissue"),
			"stale data: discard and retry the request",
			e, AnyState, G(Y(AtomOrigin), Y(AtomPendMatch), Y(AtomPendPoisoned), N(AtomHome)), stay,
			act(rowBus, rd, fREQ)),
		mk(n("stray-home"),
			"a reply nobody is waiting for; the home column still forwards the memory update",
			e, AnyState, G(Y(AtomOrigin), N(AtomPendMatch), Y(AtomHome)), stay, upd).
			unreachable("a stray reply is independently a stray-reply violation in the explorer's step check"),
		mk(n("stray"),
			"a reply nobody is waiting for is discarded",
			e, AnyState, G(Y(AtomOrigin), N(AtomPendMatch), N(AtomHome)), stay).
			unreachable("a stray reply is independently a stray-reply violation in the explorer's step check"),
		mk(n("snarf-home"),
			"a home-column bystander snarfs the line and forwards the memory update",
			e, S(inv), G(N(AtomOrigin), Y(AtomSnarfable), Y(AtomHome)), to(shd), upd),
		mk(n("snarf"),
			"a bystander with a retained invalid tag captures the passing line",
			e, S(inv), G(N(AtomOrigin), Y(AtomSnarfable), N(AtomHome)), to(shd)),
		mk(n("bystander-home"),
			"the home-column controller writes the line back to memory",
			e, AnyState, G(N(AtomOrigin), N(AtomSnarfable), Y(AtomHome)), stay, upd),
		mk(n("bystander"),
			"not the originator, not home: no action",
			e, AnyState, G(N(AtomOrigin), N(AtomSnarfable), N(AtomHome)), stay),
	}
}

// rowOwnershipReplyRules: ROW t (REPLY) for ownership transactions — the
// originator installs the line modified and inserts the table entry for
// its column; the controller at the intersection forwards otherwise.
func rowOwnershipReplyRules(t coherence.Txn) []*Rule {
	e := ev(rowBus, t, fRPL)
	n := func(s string) string { return fmt.Sprintf("row-reply/%v/%s", t, s) }
	ownStates := AnyState
	if t == sy {
		ownStates = S(res) // the handover merges into the reserved copy
	}
	return []*Rule{
		mk(n("own-install"),
			"the originator installs the line modified and inserts the modified line table entry for its column",
			e, ownStates, G(Y(AtomOrigin), Y(AtomPendMatch)), to(mod),
			act(colBus, t, fINS)),
		mk(n("stray"),
			"an ownership reply nobody is waiting for (the table insert was already scheduled)",
			e, AnyState, G(Y(AtomOrigin), N(AtomPendMatch)), stay,
			act(colBus, t, fINS)).
			unreachable("an unclaimed ownership transfer would lose the only copy: the implementation panics (data) or trips the stray-reply check (ALLOC ack)"),
		mk(n("forward-to-col"),
			"the controller in the requester's column picks the reply up and forwards it over its column bus",
			e, AnyState, G(N(AtomOrigin), Y(AtomSameCol)), stay,
			act(colBus, t, fRPL|fINS)),
		mk(n("bystander"),
			"neither originator nor intersection controller: no action",
			e, AnyState, G(N(AtomOrigin), N(AtomSameCol)), stay),
	}
}

// rowOwnershipReplyPurgeRules: ROW t (REPLY, PURGE) — the reply doubles
// as the purge broadcast for shared copies on the originator's row; the
// home column data cache has already been purged.
func rowOwnershipReplyPurgeRules(t coherence.Txn) []*Rule {
	e := ev(rowBus, t, fRPL|fPUR)
	n := func(s string) string { return fmt.Sprintf("row-reply-purge/%v/%s", t, s) }
	ownStates := AnyState
	if t == sy {
		ownStates = S(res)
	}
	return []*Rule{
		mk(n("own-install"),
			"the originator installs the line modified and inserts the table entry for its column",
			e, ownStates, G(Y(AtomOrigin), Y(AtomPendMatch)), to(mod),
			act(colBus, t, fINS)),
		mk(n("stray"),
			"an ownership reply nobody is waiting for (the table insert was already scheduled)",
			e, AnyState, G(Y(AtomOrigin), N(AtomPendMatch)), stay,
			act(colBus, t, fINS)).
			unreachable("an unclaimed ownership transfer would lose the only copy: the implementation panics (data) or trips the stray-reply check (ALLOC ack)"),
		mk(n("bystander-home"),
			"the home column data cache has already been purged: no action",
			e, AnyState, G(N(AtomOrigin), Y(AtomHome)), stay),
		mk(n("purge-shared"),
			"purge the shared copy (poisoning any outstanding READ for the line)",
			e, S(shd), G(N(AtomOrigin), N(AtomHome)), to(inv)),
		mk(n("bystander"),
			"no shared copy to purge: no action",
			e, S(inv, mod, res), G(N(AtomOrigin), N(AtomHome)), stay),
	}
}

// rowReplyFailRules: ROW t (REPLY, FAIL) — a failed test-and-set (or a
// SYNC that found the lock set in memory): notification only.
func rowReplyFailRules(t coherence.Txn) []*Rule {
	e := ev(rowBus, t, fRPL|fFAIL)
	n := func(s string) string { return fmt.Sprintf("row-reply-fail/%v/%s", t, s) }
	var complete *Rule
	if t == sy {
		complete = mk(n("fail-mustspin"),
			"the join failed: drop the reserved placeholder and fall back to spinning test-and-set (Section 4's degenerate path)",
			e, S(res), G(Y(AtomOrigin), Y(AtomPendMatch)), to(inv))
	} else {
		complete = mk(n("fail-complete"),
			"the test-and-set completes unsuccessfully; the line stays where it is",
			e, AnyState, G(Y(AtomOrigin), Y(AtomPendMatch)), stay)
	}
	return []*Rule{
		complete,
		mk(n("stray"),
			"a failure notification nobody is waiting for is discarded",
			e, AnyState, G(Y(AtomOrigin), N(AtomPendMatch)), stay).
			unreachable("a stray reply is independently a stray-reply violation in the explorer's step check"),
		mk(n("forward-to-col"),
			"the intersection controller forwards the notification over its column bus",
			e, AnyState, G(N(AtomOrigin), Y(AtomSameCol)), stay,
			act(colBus, t, fRPL|fFAIL)).
			unreachableIf(t == sy, "a SYNC failure originates only at memory (a lock-holding cache enqueues the joiner instead), so the FAIL reaches the originator's row via the intersection controller on that row, where the only same-column controller is the originator itself"),
		mk(n("bystander"),
			"neither originator nor intersection controller: no action",
			e, AnyState, G(N(AtomOrigin), N(AtomSameCol)), stay),
	}
}

// colReplyFailRules: COLUMN t (REPLY, FAIL) — the column-bus mirror.
func colReplyFailRules(t coherence.Txn) []*Rule {
	e := ev(colBus, t, fRPL|fFAIL)
	n := func(s string) string { return fmt.Sprintf("col-reply-fail/%v/%s", t, s) }
	var complete *Rule
	if t == sy {
		complete = mk(n("fail-mustspin"),
			"the join failed: drop the reserved placeholder and fall back to spinning test-and-set",
			e, S(res), G(Y(AtomOrigin), Y(AtomPendMatch)), to(inv))
	} else {
		complete = mk(n("fail-complete"),
			"the test-and-set completes unsuccessfully; the line stays where it is",
			e, AnyState, G(Y(AtomOrigin), Y(AtomPendMatch)), stay)
	}
	return []*Rule{
		complete,
		mk(n("stray"),
			"a failure notification nobody is waiting for is discarded",
			e, AnyState, G(Y(AtomOrigin), N(AtomPendMatch)), stay).
			unreachable("a stray reply is independently a stray-reply violation in the explorer's step check"),
		mk(n("forward-to-row"),
			"the intersection controller forwards the notification over its row bus",
			e, AnyState, G(N(AtomOrigin), Y(AtomSameRow)), stay,
			act(rowBus, t, fRPL|fFAIL)),
		mk(n("bystander"),
			"neither originator nor intersection controller: no action",
			e, AnyState, G(N(AtomOrigin), N(AtomSameRow)), stay),
	}
}

// rowReplyQueuedRules: ROW SYNC (REPLY, QUEUED) — the join was accepted;
// the new tail moves the modified line table entry to its own column.
func rowReplyQueuedRules() []*Rule {
	e := ev(rowBus, sy, fRPL|fQD)
	n := func(s string) string { return "row-reply-queued/SYNC/" + s }
	return []*Rule{
		mk(n("join-admitted"),
			"we are the new tail: insert the table entry into our column (the REQUEST|REMOVE deleted it from the old tail's)",
			e, S(res), G(Y(AtomOrigin), Y(AtomPendMatch), N(AtomPendQueued)), stay,
			act(colBus, sy, fINS)),
		mk(n("join-duplicate"),
			"already admitted: no action",
			e, S(res), G(Y(AtomOrigin), Y(AtomPendMatch), Y(AtomPendQueued)), stay).
			unreachable("the tail generates exactly one QUEUED notification per join"),
		mk(n("overtaken-benign"),
			"a fast XFER overtook the latency-delayed QUEUED notification; the acquire already completed and the handoff path inserted the entry",
			e, AnyState, G(Y(AtomOrigin), N(AtomPendMatch)), stay),
		mk(n("forward-to-col"),
			"the intersection controller forwards the notification over its column bus",
			e, AnyState, G(N(AtomOrigin), Y(AtomSameCol)), stay,
			act(colBus, sy, fRPL|fQD)),
		mk(n("bystander"),
			"neither originator nor intersection controller: no action",
			e, AnyState, G(N(AtomOrigin), N(AtomSameCol)), stay),
	}
}

// colReplyQueuedRules: COLUMN SYNC (REPLY, QUEUED) — origin-only; column
// replies are not forwarded further.
func colReplyQueuedRules() []*Rule {
	e := ev(colBus, sy, fRPL|fQD)
	n := func(s string) string { return "col-reply-queued/SYNC/" + s }
	return []*Rule{
		mk(n("join-admitted"),
			"we are the new tail: insert the table entry into our column",
			e, S(res), G(Y(AtomOrigin), Y(AtomPendMatch), N(AtomPendQueued)), stay,
			act(colBus, sy, fINS)),
		mk(n("join-duplicate"),
			"already admitted: no action",
			e, S(res), G(Y(AtomOrigin), Y(AtomPendMatch), Y(AtomPendQueued)), stay).
			unreachable("the tail generates exactly one QUEUED notification per join"),
		mk(n("overtaken-benign"),
			"a fast XFER overtook the QUEUED notification; the acquire already completed",
			e, AnyState, G(Y(AtomOrigin), N(AtomPendMatch)), stay),
		mk(n("bystander"),
			"not the originator: no action",
			e, AnyState, G(N(AtomOrigin)), stay),
	}
}

// rowXferRules: ROW SYNC (XFER) — a lock handoff addressed to a specific
// queue member rather than the operation's originator.
func rowXferRules() []*Rule {
	e := ev(rowBus, sy, fXFER)
	n := func(s string) string { return "row-xfer/SYNC/" + s }
	return []*Rule{
		mk(n("consume-admitted"),
			"the reserved copy becomes modified (keeping its own link word) and the waiting acquire completes holding the lock",
			e, S(res), G(Y(AtomTargetSelf), Y(AtomPendMatch), Y(AtomPendQueued)), to(mod)),
		mk(n("consume-overtaking"),
			"the XFER overtook our QUEUED notification: insert the table entry for our column now — we are the holder",
			e, S(res), G(Y(AtomTargetSelf), Y(AtomPendMatch), N(AtomPendQueued)), to(mod),
			act(colBus, sy, fINS)),
		mk(n("forward-to-col"),
			"the controller in the target's column forwards the handoff over its column bus",
			e, AnyState, G(N(AtomTargetSelf), Y(AtomTargetSameCol)), stay,
			act(colBus, sy, fXFER)),
		mk(n("bystander"),
			"not the target, not in the target's column: no action",
			e, AnyState, G(N(AtomTargetSelf), N(AtomTargetSameCol)), stay),
	}
}

// colXferRules: COLUMN SYNC (XFER) — target-only; no further forwarding.
func colXferRules() []*Rule {
	e := ev(colBus, sy, fXFER)
	n := func(s string) string { return "col-xfer/SYNC/" + s }
	return []*Rule{
		mk(n("consume-admitted"),
			"the reserved copy becomes modified and the waiting acquire completes holding the lock",
			e, S(res), G(Y(AtomTargetSelf), Y(AtomPendMatch), Y(AtomPendQueued)), to(mod)),
		mk(n("consume-overtaking"),
			"the XFER overtook our QUEUED notification: insert the table entry for our column now",
			e, S(res), G(Y(AtomTargetSelf), Y(AtomPendMatch), N(AtomPendQueued)), to(mod),
			act(colBus, sy, fINS)),
		mk(n("bystander"),
			"not the target: no action",
			e, AnyState, G(N(AtomTargetSelf)), stay),
	}
}

// rowPurgeRules: ROW t (PURGE) — purge all shared copies of the line on
// the row; the home column data cache has already been purged. Any
// outstanding READ for the line is poisoned at every controller.
func rowPurgeRules(t coherence.Txn) []*Rule {
	e := ev(rowBus, t, fPUR)
	n := func(s string) string { return fmt.Sprintf("row-purge/%v/%s", t, s) }
	return []*Rule{
		mk(n("home-already-purged"),
			"the home column data cache has already been purged: no action",
			e, AnyState, G(Y(AtomHome)), stay),
		mk(n("purge-shared"),
			"purge the shared copy",
			e, S(shd), G(N(AtomHome)), to(inv)),
		mk(n("bystander"),
			"no shared copy to purge: no action",
			e, S(inv, mod, res), G(N(AtomHome)), stay),
	}
}

// colReadReplyRules builds one COLUMN READ reply-form group (the three
// forms differ only in the flags and in what a forwarder re-emits on the
// row bus).
func colReadReplyRules(flags coherence.Flags, doc string, fwdFlags coherence.Flags) []*Rule {
	e := ev(colBus, rd, flags)
	n := func(s string) string { return fmt.Sprintf("col-reply/READ-%v/%s", flags, s) }
	fwd := act(rowBus, rd, fwdFlags)
	var originActs, poisonedActs, strayActs []ActionSpec
	if flags.Has(fUPD) && !flags.Has(fMEM) {
		// The (REPLY, UPDATE) form: the originator relays the update
		// toward the home column on its row bus, whatever the reply's
		// fate (the data is current for memory even when stale for us).
		upd := act(rowBus, rd, fUPD)
		originActs = []ActionSpec{upd}
		poisonedActs = []ActionSpec{act(rowBus, rd, fREQ), upd}
		strayActs = []ActionSpec{upd}
	} else {
		poisonedActs = []ActionSpec{act(rowBus, rd, fREQ)}
	}
	return []*Rule{
		mk(n("install"), doc+"; the originator installs the line shared",
			e, AnyState, G(Y(AtomOrigin), Y(AtomPendMatch), N(AtomPendPoisoned)), to(shd), originActs...),
		mk(n("poisoned-reissue"),
			"an invalidating broadcast overtook the reply: discard the stale data and retry the request",
			e, AnyState, G(Y(AtomOrigin), Y(AtomPendMatch), Y(AtomPendPoisoned)), stay, poisonedActs...),
		mk(n("stray"),
			"a reply nobody is waiting for is discarded",
			e, AnyState, G(Y(AtomOrigin), N(AtomPendMatch)), stay, strayActs...).
			unreachable("a stray reply is independently a stray-reply violation in the explorer's step check"),
		mk(n("snarf-forward"),
			"the intersection controller snarfs the passing line and forwards the reply over its row bus",
			e, S(inv), G(N(AtomOrigin), Y(AtomSnarfable), Y(AtomSameRow)), to(shd), fwd).
			unreachableIf(flags.Has(fUPD) && !flags.Has(fMEM),
				"the (REPLY, UPDATE) form is emitted only by a holder off the home column, and no bundled snarf-enabled preset places the written line's owner off its home column").
			unreachableIf(flags.Has(fUPD) && flags.Has(fMEM),
				"needs a controller with a retained invalid tag at the requester-row/home-column intersection; bundled snarf presets never invalidate a copy there"),
		mk(n("snarf"),
			"a bystander with a retained invalid tag captures the passing line",
			e, S(inv), G(N(AtomOrigin), Y(AtomSnarfable), N(AtomSameRow)), to(shd)).
			unreachableIf(flags.Has(fUPD) && !flags.Has(fMEM),
				"the (REPLY, UPDATE) form is emitted only by a holder off the home column, and no bundled snarf-enabled preset places the written line's owner off its home column"),
		mk(n("forward-to-row"),
			"the intersection controller forwards the reply over its row bus",
			e, AnyState, G(N(AtomOrigin), N(AtomSnarfable), Y(AtomSameRow)), stay, fwd),
		mk(n("bystander"),
			"neither originator nor intersection controller: no action",
			e, AnyState, G(N(AtomOrigin), N(AtomSnarfable), N(AtomSameRow)), stay),
	}
}

// colReplyInsertRules: COLUMN t (REPLY, INSERT) — an ownership transfer
// on the requester's own column, which inserts the column's table entry.
func colReplyInsertRules(t coherence.Txn) []*Rule {
	e := ev(colBus, t, fRPL|fINS)
	n := func(s string) string { return fmt.Sprintf("col-reply-insert/%v/%s", t, s) }
	ownStates := AnyState
	if t == sy {
		ownStates = S(res)
	}
	return []*Rule{
		mk(n("own-install"),
			"the originator installs the line modified; the entry enters the column's table",
			e, ownStates, G(Y(AtomOrigin), Y(AtomPendMatch)), to(mod)).mlt(MLTPresent).side(),
		mk(n("stray"),
			"an ownership reply nobody is waiting for; the table insert still happens",
			e, AnyState, G(Y(AtomOrigin), N(AtomPendMatch)), stay).mlt(MLTPresent).side().
			unreachable("an unclaimed ownership transfer would lose the only copy: the implementation panics (data) or trips the stray-reply check (ALLOC ack)"),
		mk(n("mlt-mirror"),
			"the entry enters the column's table; nothing to do here",
			e, AnyState, G(N(AtomOrigin), N(AtomOverflow)), stay).mlt(MLTPresent),
		mk(n("overflow"),
			"the insert displaced an entry: a victim held modified here is written back as side traffic and marked shared",
			e, AnyState, G(N(AtomOrigin), Y(AtomOverflow)), stay).mlt(MLTPresent).side().
			unreachable("the reply inserts the entry its own REQUEST|REMOVE removed from the column a moment before, so a single-entry table overflows only if another insert lands on the column between the two, which no bundled preset stages"),
	}
}

// colReplyPurgeRules: COLUMN t (REPLY, PURGE) — memory's reply to an
// ownership request: a purge of all copies is required; the home-column
// data cache is purged first, then the purge spreads row by row.
func colReplyPurgeRules(t coherence.Txn) []*Rule {
	e := ev(colBus, t, fRPL|fPUR)
	n := func(s string) string { return fmt.Sprintf("col-reply-purge/%v/%s", t, s) }
	ownStates := AnyState
	if t == sy {
		ownStates = S(res)
	}
	return []*Rule{
		mk(n("own-install"),
			"the originator installs the line modified, inserts its table entry, and broadcasts the purge on its row",
			e, ownStates, G(Y(AtomOrigin), Y(AtomPendMatch)), to(mod),
			act(colBus, t, fINS), act(rowBus, t, fPUR)),
		mk(n("stray"),
			"an ownership reply nobody is waiting for (insert and purge were already scheduled)",
			e, AnyState, G(Y(AtomOrigin), N(AtomPendMatch)), stay,
			act(colBus, t, fINS), act(rowBus, t, fPUR)).
			unreachable("an unclaimed ownership transfer would lose the only copy: the implementation panics (data) or trips the stray-reply check (ALLOC ack)"),
		mk(n("purge-shared-forward"),
			"the intersection controller purges its shared copy and forwards the reply (which doubles as the purge) on its row",
			e, S(shd), G(N(AtomOrigin), Y(AtomSameRow)), to(inv),
			act(rowBus, t, fRPL|fPUR)),
		mk(n("purge-shared-relay"),
			"a controller purges its shared copy and relays the purge broadcast on its row",
			e, S(shd), G(N(AtomOrigin), N(AtomSameRow)), to(inv),
			act(rowBus, t, fPUR)),
		mk(n("relay-forward"),
			"the intersection controller forwards the reply-purge on its row (no shared copy here)",
			e, S(inv, mod, res), G(N(AtomOrigin), Y(AtomSameRow)), stay,
			act(rowBus, t, fRPL|fPUR)),
		mk(n("relay"),
			"a controller relays the purge broadcast on its row (no shared copy here)",
			e, S(inv, mod, res), G(N(AtomOrigin), N(AtomSameRow)), stay,
			act(rowBus, t, fPUR)),
	}
}

// colWritebackRemoveRules: COLUMN WRITEBACK (REMOVE) — write the line to
// memory; if the table remove fails some other bus operation will remove
// the data; in either case signal the processor request to continue (the
// continuation may change the line's state and issue traffic for other
// lines, so the next state is unconstrained).
func colWritebackRemoveRules() []*Rule {
	e := ev(colBus, wb, fREM)
	n := func(s string) string { return "col-wb-remove/WRITEBACK/" + s }
	return []*Rule{
		mk(n("mirror-remove"),
			"the entry leaves the column's table; nothing to do here",
			e, AnyState, G(N(AtomOrigin)), stay).mlt(MLTAbsent),
		mk(n("wb-update-home"),
			"the remove succeeded and we still hold the line modified: write it to memory directly (home column), then continue",
			e, S(mod), G(Y(AtomOrigin), Y(AtomMLTHas), Y(AtomHome)), wild,
			act(colBus, wb, fUPD|fMEM)).mlt(MLTAbsent).side(),
		mk(n("wb-update-row"),
			"the remove succeeded and we still hold the line modified: route the memory update via the row bus, then continue",
			e, S(mod), G(Y(AtomOrigin), Y(AtomMLTHas), N(AtomHome)), wild,
			act(rowBus, wb, fUPD)).mlt(MLTAbsent).side(),
		mk(n("wb-raced"),
			"the remove succeeded but the line was taken from us in the meantime: nothing to write back; continue",
			e, S(inv, shd, res), G(Y(AtomOrigin), Y(AtomMLTHas)), wild).mlt(MLTAbsent).side().
			unreachable("needs the write-back's remove to succeed while a refusal-restored entry outlives a degrade of the line; no bundled write-back preset mixes test-and-set refusals with plain reads of the victim line"),
		mk(n("wb-refused-claim"),
			"the table remove failed but the line is still here modified: the claimant was refused and its restoring INSERT is behind us; retry the remove until the race resolves",
			e, S(mod), G(Y(AtomOrigin), N(AtomMLTHas)), stay,
			act(colBus, wb, fREM)).mlt(MLTAbsent),
		mk(n("wb-lost-entry"),
			"the table remove failed and the line is gone: the claiming bus operation took the data; continue",
			e, S(inv, shd, res), G(Y(AtomOrigin), N(AtomMLTHas)), wild).mlt(MLTAbsent).side(),
	}
}
