package coherence

import (
	"fmt"

	"multicube/internal/bus"
	"multicube/internal/cache"
)

// This file implements the synchronization extensions of Section 4: the
// remote test-and-set transaction (a variant of READ-MOD that returns a
// succeed/fail value, moving the line only on success) and the SYNC
// transaction that builds a distributed FIFO queue of lock waiters using
// deliberately inconsistent copies of the lock line — one link word per
// copy — so that contended locks generate almost no bus traffic.

// serveTASFromModified executes a remote test-and-set at the cache
// holding the modified line. On success the line moves to the requester
// (like a READMOD); on failure only the notification of failure is
// returned and the line remains here.
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) serveTASFromModified(op *Op, e *cache.Entry) {
	if e.Data[LockWord] == 0 {
		e.Data[LockWord] = 1 // the set happens at the executor
		n.track(op.Line, n.l2.Invalidate(op.Line), Invalid)
		n.notifyInvalidate(op.Line)
		n.sendOwnership(op, e)
		return
	}
	n.replyFail(op)
	n.restoreTableEntry(op)
}

// serveSyncAtHolder handles a SYNC join arriving at the current queue
// tail — "the node with the copy at the end of the queue (or the modified
// copy, if there is no queue) receives the request".
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) serveSyncAtHolder(op *Op, e *cache.Entry) {
	if e.State == Modified && e.Data[LockWord] == 0 {
		// Lock free, no queue: hand the line over immediately with the
		// lock taken for the requester.
		n.track(op.Line, n.l2.Invalidate(op.Line), Invalid)
		n.notifyInvalidate(op.Line)
		n.sendOwnership(op, e)
		return
	}
	// Lock held (or we are a reserved waiter ourselves): enter the id of
	// the requesting node into the designated word of the line. We are
	// the tail, so our link word must be free.
	if e.Data[LinkWord] != 0 {
		panic(fmt.Sprintf("coherence: node %v is SYNC tail for line %d but has successor %d",
			n.id, op.Line, e.Data[LinkWord]))
	}
	e.Data[LinkWord] = n.sys.encodeNode(op.Origin)
	// A queue now exists through this copy: pin it (a head that acquired
	// through plain test-and-set would otherwise be victimizable).
	e.Pinned = true
	// Tell the requester it joined; it becomes the new tail and moves
	// the modified line table entry to its own column.
	n.routeNotification(op, QUEUED)
}

// replyFail sends the failure notification of a test-and-set (or a SYNC
// that found the lock word set in memory) back to the requester.
func (n *Node) replyFail(op *Op) {
	n.routeNotification(op, FAIL)
}

// routeNotification sends an address-only REPLY|kind to op.Origin using
// the cheapest route: directly on a shared bus, or via the controller at
// the intersection of my row and the origin's column.
func (n *Node) routeNotification(op *Op, kind Flags) {
	lat := bus.CacheLatency
	reply := n.sys.addrOp(op.Txn, REPLY|kind, op.Origin, op.Line, op.trace)
	switch {
	case n.id.Row == op.Origin.Row:
		n.issueRowAfter(lat, reply)
	case n.id.Col == op.Origin.Col:
		n.issueColAfter(lat, reply)
	default:
		n.issueRowAfter(lat, reply)
	}
}

func (n *Node) rowReplyFail(op *Op) {
	if op.Origin == n.id {
		n.failPending(op)
		return
	}
	if n.id.Col == op.Origin.Col {
		n.issueColAfter(forwardLatency,
			n.sys.addrOp(op.Txn, REPLY|FAIL, op.Origin, op.Line, op.trace))
	}
}

func (n *Node) colReplyFail(op *Op) {
	if op.Origin == n.id {
		n.failPending(op)
		return
	}
	if n.id.Row == op.Origin.Row {
		n.issueRowAfter(forwardLatency,
			n.sys.addrOp(op.Txn, REPLY|FAIL, op.Origin, op.Line, op.trace))
	}
}

// failPending completes an outstanding TAS with failure, or an
// outstanding SYNC with the fall-back-to-spinning result (cleaning up the
// reserved copy allocated at join time).
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) failPending(op *Op) {
	if !n.matchesPending(op) {
		n.sys.acct.strays++
		return
	}
	res := Result{}
	if op.Txn == SYNC {
		if e := n.l2.Probe(op.Line); e != nil && e.State == Reserved {
			e.Pinned = false
			was := n.l2.Drop(op.Line)
			n.track(op.Line, was, Invalid)
			// The processor cache may still hold the line from before the
			// reserved copy overwrote it (a prior shared read); dropping
			// only the snooping copy would break multilevel inclusion.
			// purgeUpper, not notifyInvalidate: the entry is gone, so the
			// snarf staleness stamp is unreachable and stamping it would
			// shift fingerprints.
			n.purgeUpper(op.Line)
		}
		res.MustSpin = true
	}
	n.complete(op, res)
}

func (n *Node) rowReplyQueued(op *Op) {
	if op.Origin == n.id {
		n.syncQueued(op)
		return
	}
	if n.id.Col == op.Origin.Col {
		n.issueColAfter(forwardLatency,
			n.sys.addrOp(SYNC, REPLY|QUEUED, op.Origin, op.Line, op.trace))
	}
}

func (n *Node) colReplyQueued(op *Op) {
	if op.Origin == n.id {
		n.syncQueued(op)
	}
}

// syncQueued records that our SYNC join was accepted: we are the new
// tail, so "the entry in the modified line table is moved to the column
// of the new tail of the queue" — the REQUEST|REMOVE deleted it from the
// old tail's column; we insert it into ours. The acquire itself stays
// pending until the XFER handoff arrives.
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) syncQueued(op *Op) {
	if !n.matchesPending(op) {
		// A fast XFER can overtake the (cache-latency-delayed) QUEUED
		// notification; by the time it arrives the acquire already
		// completed. Benign: the handoff path inserted the table entry.
		return
	}
	if n.pend.queued {
		return
	}
	n.pend.queued = true
	n.issueCol(n.sys.addrOp(SYNC, INSERT, n.id, op.Line, op.trace))
}

// rowXfer and colXfer route a lock handoff to the specific queue member
// named in op.Target.
func (n *Node) rowXfer(op *Op) {
	if op.Target == n.id {
		n.consumeXfer(op)
		return
	}
	if n.id.Col == op.Target.Col {
		fwd := n.sys.dataOp(SYNC, XFER, op.Origin, op.Line, op.Data, op.trace)
		fwd.Target = op.Target
		n.issueColAfter(forwardLatency, fwd)
	}
}

func (n *Node) colXfer(op *Op) {
	if op.Target == n.id {
		n.consumeXfer(op)
	}
}

// consumeXfer receives a forwarded lock line: the reserved copy becomes
// modified, keeping its own link word (which may already name our
// successor), and the waiting acquire completes holding the lock.
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) consumeXfer(op *Op) {
	e := n.l2.Probe(op.Line)
	if e == nil || e.State != Reserved {
		panic(fmt.Sprintf("coherence: node %v received XFER for line %d without reserved copy", n.id, op.Line))
	}
	myLink := e.Data[LinkWord]
	copy(e.Data, op.Data)
	e.Data[LinkWord] = myLink
	n.setState(e, Modified)
	// Stay pinned: a victimized lock line would strand the queue behind
	// us (the degenerate purge case Section 4 warns about).
	if !n.matchesPending(op) {
		panic(fmt.Sprintf("coherence: node %v received XFER for line %d with no waiting acquire", n.id, op.Line))
	}
	if !n.pend.queued {
		// The XFER overtook our QUEUED notification: the modified line
		// table entry for our column has not been inserted yet. Do it
		// now — we are the holder.
		n.issueCol(n.sys.addrOp(SYNC, INSERT, n.id, op.Line, op.trace))
	}
	n.complete(op, Result{Acquired: true})
}

// SyncAcquire joins the distributed queue for line (Section 4): allocate
// space in the local cache marked reserved, clear the designated word,
// and initiate a SYNC transaction. done fires with Acquired when the lock
// line arrives (immediately, or via a handoff after queueing), or with
// MustSpin when the caller should fall back to spinning test-and-set.
func (n *Node) SyncAcquire(line cache.Line, done func(Result)) {
	n.gen++
	if e, ok := n.l2.Lookup(line); ok {
		switch e.State {
		case Modified:
			if e.Data[LockWord] == 0 {
				e.Data[LockWord] = 1
				e.Pinned = true // sync-active: must not be victimized
				done(Result{Acquired: true})
				return
			}
			// We already hold the line with the lock taken (another
			// process on this node): fall back to local spinning.
			done(Result{MustSpin: true})
			return
		case Reserved:
			// Already queued from this node.
			done(Result{MustSpin: true})
			return
		}
	}
	n.beginPending(SYNC, 0, line, done)
	//multicube:fpexempt continuation of SyncAcquire, which bumped at entry
	issue := func() {
		e := n.writeLine(line, Reserved, nil)
		e.Pinned = true
		n.issueRow(n.sys.addrOp(SYNC, REQUEST, n.id, line, n.pend.trace))
	}
	v := n.l2.SelectVictim(line)
	if v != nil && v.State == Modified {
		victim := v.Line
		wbTrace := &TxnTrace{Txn: WRITEBACK, Line: victim, Started: n.sys.k.Now()}
		//multicube:fpexempt continuation of SyncAcquire, which bumped at entry
		n.startWriteback(victim, wbTrace, func() {
			n.track(victim, n.l2.Invalidate(victim), Invalid)
			n.notifyInvalidate(victim)
			n.recordCompletion(wbTrace)
			issue()
		})
		return
	}
	issue()
}

// SyncRelease releases a lock line acquired through SyncAcquire: if a
// waiter is queued in our link word, the line is forwarded directly to
// it; otherwise the lock word is cleared and the line stays cached
// modified. It returns false when the line is no longer held modified
// (the scheme degenerated); the caller must then release in software with
// an ordinary write.
func (n *Node) SyncRelease(line cache.Line) bool {
	n.gen++
	e, ok := n.l2.Lookup(line)
	if !ok || e.State != Modified {
		return false
	}
	next, queued := n.sys.decodeNode(e.Data[LinkWord])
	if !queued {
		e.Data[LockWord] = 0
		e.Pinned = false // free and unqueued: safe to victimize again
		return true
	}
	op := n.sys.dataOp(SYNC, XFER, n.id, line, e.Data, nil)
	op.Data[LockWord] = 1 // the receiver acquires by transfer
	op.Data[LinkWord] = 0 // the receiver keeps its own link word
	op.Target = next
	n.track(line, n.l2.Invalidate(line), Invalid)
	n.notifyInvalidate(line)
	if next.Col == n.id.Col {
		n.issueCol(op)
	} else {
		n.issueRow(op)
	}
	return true
}
