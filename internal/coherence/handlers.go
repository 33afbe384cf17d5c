package coherence

import (
	"fmt"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/mlt"
)

// probeCol asserts the column-bus will-serve signal for requests
// targeting a line this node holds. The column's snooper probes only for
// a REQUEST|REMOVE, and only at the nodes holding its line Modified or
// Reserved.
func (n *Node) probeCol(op *Op) {
	e, ok := n.l2.Lookup(op.Line)
	if !ok {
		return
	}
	switch e.State {
	case Modified:
		// A queue head with an admitted successor stays silent for every
		// transaction: serving a TAS/SYNC belongs to the tail, and
		// surrendering the modified copy to a READ or READMOD would
		// strand the queue — the handoff XFER needs the head's data and
		// link authority. Requests bounce and retry until the queue
		// drains. The pin disambiguates: the link word is protocol-owned
		// only while sync state is live (the admission pinned this copy);
		// on an ordinary data line word 1 is just data.
		if !e.Pinned || e.Data[LinkWord] == 0 {
			op.servers |= 1 << n.id.Row
		}
	case Reserved:
		// An admitted queue tail answers (serving SYNC/TAS, or bouncing
		// READ/READMOD); a joiner whose admission is still in flight
		// stays silent.
		if e.Data[LinkWord] == 0 && n.isQueuedTailFor(op.Line) {
			op.servers |= 1 << n.id.Row
		}
	}
}

// snoop dispatches an operation delivered on the node's bus of
// dimension dim.
func (n *Node) snoop(dim Dim, op *Op) {
	if dim == Row {
		n.snoopRow(op)
	} else {
		n.snoopCol(op)
	}
}

// snoopRow dispatches a row bus operation. On a bus operation, all nodes
// on the bus, including the originator, execute the appropriate
// procedure; the row's snooper enters only those the delivery table
// addresses (deliver.go), whose classes follow the arms below and
// snoopCol's.
func (n *Node) snoopRow(op *Op) {
	n.gen++
	switch {
	case op.Flags.Has(REQUEST):
		n.rowRequest(op)
	case op.Flags.Has(XFER):
		n.rowXfer(op)
	case op.Flags.Has(REPLY):
		n.rowReply(op)
	case op.Flags.Has(UPDATE):
		n.rowUpdate(op)
	case op.Flags.Has(PURGE):
		n.rowPurge(op)
	default:
		panic(fmt.Sprintf("coherence: node %v snooped unroutable row op %v", n.id, op))
	}
}

// snoopCol dispatches a column bus operation.
func (n *Node) snoopCol(op *Op) {
	n.gen++
	switch {
	case op.Flags.Has(REQUEST | REMOVE):
		n.colRequestRemove(op)
	case op.Flags.Has(REQUEST | MEMORY):
		// Destined for memory; controllers take no action.
	case op.Flags.Has(XFER):
		n.colXfer(op)
	case op.Flags.Has(REPLY):
		n.colReply(op)
	case op.Flags.Has(INSERT):
		n.tableInsert(op)
	case op.Flags.Has(REMOVE):
		n.colWritebackRemove(op)
	case op.Flags.Has(UPDATE | MEMORY):
		// Memory write; controllers take no action.
	default:
		panic(fmt.Sprintf("coherence: node %v snooped unroutable column op %v", n.id, op))
	}
}

/*
row bus request for data; the request is either forwarded to the column

	where it resides in global state modified or to the home column
*/
func (n *Node) rowRequest(op *Op) {
	line := op.Line
	if n.sys.mlt.Contains(n.id.Col, mlt.Line(line)) {
		if op.suppressed {
			// Injected fault (decided at probe time): discard the
			// request; the home column and the memory valid bit will
			// re-drive it.
			n.sys.dropped++
			return
		}
		if op.claimant != n.id {
			// Another controller won the claim (its table also holds
			// the line — one of the two entries is stale and its REMOVE
			// is in flight): only the claimant forwards, so the request
			// is never duplicated.
			return
		}
		// Modified signal supplied in the row's probe; forward onto my column.
		flags := REQUEST | REMOVE | (op.Flags & ALLOC)
		n.issueColAfter(forwardLatency,
			n.sys.addrOp(op.Txn, flags, op.Origin, line, op.trace))
		return
	}
	if n.onHomeColumn(line) && !op.modified {
		if op.Txn == READ {
			if e, ok := n.l2.Lookup(line); ok && e.State == Shared {
				// The home-column controller has the line: it requests
				// the row bus and sends the data itself.
				n.issueRowAfter(bus.CacheLatency,
					n.sys.dataOp(READ, REPLY, op.Origin, line, e.Data, op.trace))
				return
			}
		}
		flags := REQUEST | MEMORY | (op.Flags & ALLOC)
		n.issueColAfter(forwardLatency,
			n.sys.addrOp(op.Txn, flags, op.Origin, line, op.trace))
	}
}

/*
column bus request for modified data; removing the modified line table

	entry guarantees access to the data; losing requests are reissued
*/
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) colRequestRemove(op *Op) {
	if !op.mltHad {
		// Lost race: the controller on the originator's row retransmits
		// the request on the row bus, where it is treated exactly as if
		// it were a new request (but destined for the original requester).
		if n.id.Row == op.Origin.Row {
			n.stats.Reissues++
			flags := REQUEST | (op.Flags & ALLOC)
			n.issueRowAfter(forwardLatency,
				n.sys.addrOp(op.Txn, flags, op.Origin, op.Line, op.trace))
		}
		return
	}
	if op.servers == 0 {
		// The remove succeeded but no controller on this column can
		// answer right now (a queue admission in flight, a head with a
		// queued successor, or a stale entry): the controller on the
		// originator's row restores the entry and retransmits, keeping
		// both the request and the table consistent.
		if n.id.Row == op.Origin.Row {
			n.stats.Reissues++
			n.restoreTableEntry(op)
			flags := REQUEST | (op.Flags & ALLOC)
			n.issueRowAfter(forwardLatency,
				n.sys.addrOp(op.Txn, flags, op.Origin, op.Line, op.trace))
		}
		return
	}
	e, ok := n.l2.Lookup(op.Line)
	if !ok {
		// Some other controller on this column holds the line.
		return
	}
	switch e.State {
	case Modified:
		// While the copy is pinned the link word is protocol-owned: a
		// nonzero link means a SYNC queue is active and this copy is its
		// head. The head serves nothing — the tail answers TAS/SYNC for
		// its own column, and giving the line away to a READ/READMOD
		// would strand the queued waiter (probeCol already kept will-serve
		// down; this mirrors it at dispatch).
		if e.Pinned && e.Data[LinkWord] != 0 {
			return
		}
		switch op.Txn {
		case READ:
			n.serveReadFromModified(op, e)
		case READMOD:
			n.serveReadModFromModified(op, e)
		case TAS:
			n.serveTASFromModified(op, e)
		case SYNC:
			n.serveSyncAtHolder(op, e)
		}
	case Reserved:
		if !n.isQueuedTailFor(op.Line) || e.Data[LinkWord] != 0 {
			return
		}
		switch op.Txn {
		case SYNC:
			n.serveSyncAtHolder(op, e)
		case TAS:
			// A reserved copy means the queue is active: the lock is
			// certainly held.
			n.replyFail(op)
			n.restoreTableEntry(op)
		default:
			// The data is not here (reserved placeholder only), and a
			// same-column holder, if any, is the queue head and keeps
			// the line: restore the entry and retransmit; the request
			// retries until the queue drains.
			n.bounceOffReserved(op)
		}
	}
}

// serveReadFromModified supplies modified data for a READ: the holder
// fetches the data, changes its mode from modified to shared, and routes
// the data toward the requester with a memory update along the way.
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) serveReadFromModified(op *Op, e *cache.Entry) {
	n.setState(e, Shared)
	// A sync-active pin guards the modified copy's queue authority; the
	// shared copy left behind has none, and must be victimizable again
	// (SyncRelease already handles the degenerated ownership).
	e.Pinned = false
	lat := bus.CacheLatency
	switch {
	case n.onHomeColumn(op.Line):
		n.issueColAfter(lat, n.sys.dataOp(READ, REPLY|UPDATE|MEMORY, op.Origin, op.Line, e.Data, op.trace))
	case n.id.Row == op.Origin.Row:
		n.issueRowAfter(lat, n.sys.dataOp(READ, REPLY|UPDATE, op.Origin, op.Line, e.Data, op.trace))
	default:
		n.issueColAfter(lat, n.sys.dataOp(READ, REPLY|UPDATE, op.Origin, op.Line, e.Data, op.trace))
	}
}

// serveReadModFromModified transfers ownership for a READMOD: the holder
// invalidates its copy and sends the line toward the requester's column.
// Main memory is not updated.
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) serveReadModFromModified(op *Op, e *cache.Entry) {
	n.track(op.Line, n.l2.Invalidate(op.Line), Invalid)
	n.notifyInvalidate(op.Line)
	n.stats.Invalidations++
	n.sendOwnership(op, e)
}

// sendOwnership routes an ownership-transfer reply (READMOD, TAS success,
// SYNC handover) from this holder, which has given up its copy e, to the
// requester: the line, for ALLOC an acknowledgement, and for a SYNC
// handover the line with the lock taken and no successor in its link word.
func (n *Node) sendOwnership(op *Op, e *cache.Entry) {
	// Transmit on my row bus, for the controller in the requester's column
	// to forward over its column bus, or on my column bus if it is theirs.
	dim, flags, data := Row, REPLY|op.Flags&ALLOC, e.Data
	if n.id.Col == op.Origin.Col {
		dim, flags = Col, flags|INSERT
	}
	if flags.Has(ALLOC) {
		data = nil
	}
	reply := n.sys.replyOp(op.Txn, flags, op.Origin, op.Line, data, op.trace)
	if op.Txn == SYNC {
		reply.Data[LockWord], reply.Data[LinkWord] = 1, 0
	}
	n.issueAfter(dim, bus.CacheLatency, reply)
}

// bounceOffReserved handles a READ or READMOD routed to a column whose
// holder has only a reserved copy (a SYNC queue tail): the data is not
// here. The entry is restored and the request retransmitted; it will keep
// retrying until the queue drains and a modified copy exists. This is the
// "degenerates ... which guarantees correctness if not efficiency" path
// of Section 4.
func (n *Node) bounceOffReserved(op *Op) {
	n.stats.Deferred++
	n.restoreTableEntry(op)
	flags := REQUEST | (op.Flags & ALLOC)
	n.issueRowAfter(forwardLatency,
		n.sys.addrOp(op.Txn, flags, op.Origin, op.Line, op.trace))
}

// restoreTableEntry re-inserts the modified line table entry that a
// REQUEST|REMOVE deleted, for requests the holder did not satisfy.
func (n *Node) restoreTableEntry(op *Op) {
	n.issueCol(n.sys.addrOp(op.Txn, INSERT, n.id, op.Line, op.trace))
}

/*
write the line to memory; if the modified line table remove operation

	fails then some other bus operation will remove the data; in either
	case signal the processor request to continue
*/
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) colWritebackRemove(op *Op) {
	if op.Origin != n.id {
		return
	}
	if op.mltHad {
		if e, ok := n.l2.Lookup(op.Line); ok && e.State == Modified {
			if n.onHomeColumn(op.Line) {
				n.issueCol(n.sys.dataOp(WRITEBACK, UPDATE|MEMORY, n.id, op.Line, e.Data, op.trace))
			} else {
				n.issueRow(n.sys.dataOp(WRITEBACK, UPDATE, n.id, op.Line, e.Data, op.trace))
			}
		}
	} else if e, ok := n.l2.Lookup(op.Line); ok && e.State == Modified {
		// The entry was claimed by a request in flight, yet the line is
		// still here: the claimant was refused (a lock try that found the
		// lock set, a probe bounced off the queue) and the INSERT restoring
		// the entry is already on the bus behind us. Completing now would
		// demote this copy under a table entry that still names our column
		// — losing the only valid copy. Retry the remove until the race
		// resolves: either the restore lands first (the remove succeeds) or
		// a later claimant takes the line (nothing left to write).
		n.stats.Reissues++
		n.issueColAfter(forwardLatency,
			n.sys.addrOp(WRITEBACK, REMOVE, n.id, op.Line, op.trace))
		return
	}
	cont := n.wbCont
	n.wbCont, n.wbTrace = nil, nil
	if cont != nil {
		cont()
	}
}

/* forward the memory update request to the home column */
func (n *Node) rowUpdate(op *Op) {
	if n.onHomeColumn(op.Line) {
		n.issueColAfter(forwardLatency,
			n.sys.dataOp(op.Txn, UPDATE|MEMORY, op.Origin, op.Line, op.Data, op.trace))
	}
}

/*
row bus operation to purge all shared copies of a line; the home column

	data cache has already been purged
*/
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) rowPurge(op *Op) {
	if n.onHomeColumn(op.Line) {
		n.poisonPendingRead(op.Line)
		return
	}
	n.purgeShared(op.Line)
}

// purgeShared poisons an outstanding READ of line and invalidates a
// shared copy.
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) purgeShared(line cache.Line) {
	n.poisonPendingRead(line)
	if e, ok := n.l2.Lookup(line); ok && e.State == Shared {
		n.setState(e, Invalid)
		e.Pinned = false
		n.notifyInvalidate(line)
		n.stats.Invalidations++
	}
}

// rowReply dispatches replies traveling on a row bus.
func (n *Node) rowReply(op *Op) {
	switch {
	case op.Flags.Has(FAIL):
		n.rowReplyFail(op)
	case op.Flags.Has(QUEUED):
		n.rowReplyQueued(op)
	case op.Txn == READ:
		n.rowReadReply(op)
	default:
		n.rowOwnershipReply(op)
	}
}

/*
row bus reply to a READ request (plain, or indicating that memory

	should be updated)
*/
func (n *Node) rowReadReply(op *Op) {
	if op.Origin == n.id {
		n.installShared(op)
	} else {
		n.snarf(op)
	}
	if op.Flags.Has(UPDATE) && n.onHomeColumn(op.Line) {
		// READ (ROW, REPLY, UPDATE): the home-column controller writes
		// the line back to memory.
		n.issueColAfter(forwardLatency,
			n.sys.dataOp(op.Txn, UPDATE|MEMORY, op.Origin, op.Line, op.Data, op.trace))
	}
}

// rowOwnershipReply handles READMOD/TAS/SYNC replies on a row bus.
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) rowOwnershipReply(op *Op) {
	switch {
	case op.Flags.Has(PURGE):
		/* row bus reply to a READMOD request also indicating that all
		   shared copies of the line should be purged on the row; the
		   home column data cache has already been purged */
		if op.Origin == n.id {
			n.issueCol(n.sys.addrOp(op.Txn, INSERT, op.Origin, op.Line, op.trace))
			n.installOwned(op)
		} else {
			n.rowPurge(op)
		}
	default:
		/* row bus reply to a READMOD request */
		if op.Origin == n.id {
			n.issueCol(n.sys.addrOp(op.Txn, INSERT, op.Origin, op.Line, op.trace))
			n.installOwned(op)
		} else if n.id.Col == op.Origin.Col {
			n.issueColAfter(forwardLatency,
				n.sys.replyOp(op.Txn, REPLY|INSERT|(op.Flags&ALLOC), op.Origin, op.Line, op.Data, op.trace))
		}
	}
}

// colReply dispatches replies traveling on a column bus.
func (n *Node) colReply(op *Op) {
	switch {
	case op.Flags.Has(FAIL):
		n.colReplyFail(op)
	case op.Flags.Has(QUEUED):
		n.colReplyQueued(op)
	case op.Txn == READ:
		n.colReadReply(op)
	default:
		n.colOwnershipReply(op)
	}
}

// colReadReply handles the three READ reply forms on a column bus.
func (n *Node) colReadReply(op *Op) {
	switch {
	case op.Flags.Has(UPDATE | MEMORY):
		/* column bus reply to a READ request indicating that the memory
		   on this column should be updated */
		if op.Origin == n.id {
			n.installShared(op)
		} else {
			n.snarf(op)
			if n.id.Row == op.Origin.Row {
				n.issueRowAfter(forwardLatency,
					n.sys.forwardOp(op, REPLY, op.trace))
			}
		}
	case op.Flags.Has(UPDATE):
		/* column bus reply to a READ request indicating that memory
		   should be updated */
		if op.Origin == n.id {
			n.installShared(op)
			n.issueRow(n.sys.dataOp(READ, UPDATE, op.Origin, op.Line, op.Data, op.trace))
		} else {
			n.snarf(op)
			if n.id.Row == op.Origin.Row {
				n.issueRowAfter(forwardLatency,
					n.sys.forwardOp(op, REPLY|UPDATE, op.trace))
			}
		}
	case op.Flags.Has(NOPURGE):
		/* column bus reply from memory to a READ request; no purge is
		   required for a READ transaction */
		if op.Origin == n.id {
			n.installShared(op)
		} else {
			n.snarf(op)
			if n.id.Row == op.Origin.Row {
				n.issueRowAfter(forwardLatency,
					n.sys.forwardOp(op, REPLY, op.trace))
			}
		}
	default:
		panic(fmt.Sprintf("coherence: node %v snooped unroutable READ column reply %v", n.id, op))
	}
}

// colOwnershipReply handles READMOD/TAS/SYNC replies on a column bus.
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) colOwnershipReply(op *Op) {
	switch {
	case op.Flags.Has(INSERT):
		/* column bus reply to a READMOD request indicating that an entry
		   should be inserted into the modified line table */
		if op.Origin == n.id {
			n.installOwned(op)
		}
		n.tableInsert(op)
	case op.Flags.Has(PURGE):
		/* column bus reply from memory to a READMOD request; a purge of
		   all copies of the line is required; the data cache on the home
		   column must be purged first */
		if op.Origin == n.id {
			n.issueCol(n.sys.addrOp(op.Txn, INSERT, op.Origin, op.Line, op.trace))
			n.issueRow(n.sys.addrOp(op.Txn, PURGE, op.Origin, op.Line, op.trace))
			n.installOwned(op)
			return
		}
		n.purgeShared(op.Line)
		if n.id.Row == op.Origin.Row {
			n.issueRowAfter(forwardLatency, n.sys.replyOp(op.Txn, REPLY|PURGE|(op.Flags&ALLOC), op.Origin, op.Line, op.Data, op.trace))
		} else {
			n.issueRowAfter(forwardLatency, n.sys.addrOp(op.Txn, PURGE, op.Origin, op.Line, op.trace))
		}
	default:
		panic(fmt.Sprintf("coherence: node %v snooped unroutable ownership column reply %v", n.id, op))
	}
}

// installShared writes the pending READ's line in shared mode and
// completes the transaction. If an invalidating broadcast overtook the
// reply, the data is stale: discard it and retry the request instead.
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) installShared(op *Op) {
	if !n.matchesPending(op) {
		n.sys.acct.strays++
		return
	}
	if n.pend.poisoned {
		n.pend.poisoned = false
		n.stats.Reissues++
		n.issueRequest()
		return
	}
	n.complete(op, Result{Entry: n.writeLine(op.Line, Shared, op.Data)})
}

// isQueuedTailFor reports whether this node's reserved copy of line is an
// admitted member (and thus tail) of the line's SYNC queue.
func (n *Node) isQueuedTailFor(line cache.Line) bool {
	return n.pend != nil && n.pend.txn == SYNC && n.pend.line == line && n.pend.queued
}

// poisonPendingRead marks an outstanding READ for line whose reply may now
// deliver stale data.
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) poisonPendingRead(line cache.Line) {
	if n.sys.DisableStaleReplyPoisoning {
		return // test hook: reproduce the protocol gap of DESIGN.md §5.6a
	}
	if n.pend != nil && n.pend.txn == READ && n.pend.line == line {
		n.pend.poisoned = true
	}
}

// installOwned writes the pending request's line in modified mode
// (merging into a reserved copy for SYNC, zero-filling for ALLOCATE) and
// completes the transaction.
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) installOwned(op *Op) {
	if !n.matchesPending(op) {
		if op.Data != nil && op.Txn != READ {
			// An ownership transfer nobody is waiting for would lose the
			// only copy of the data: a protocol bug, not a race.
			panic(fmt.Sprintf("coherence: node %v received unclaimed ownership reply %v", n.id, op))
		}
		n.sys.acct.strays++
		return
	}
	var e *cache.Entry
	switch {
	case op.Txn == SYNC:
		e = n.l2.Probe(op.Line)
		if e == nil || e.State != Reserved {
			panic(fmt.Sprintf("coherence: node %v SYNC reply without reserved copy for line %d", n.id, op.Line))
		}
		myLink := e.Data[LinkWord]
		copy(e.Data, op.Data)
		e.Data[LinkWord] = myLink
		n.setState(e, Modified)
		// Stay pinned while sync-active; SyncRelease unpins.
	case op.Flags.Has(ALLOC):
		e = n.writeLine(op.Line, Modified, nil)
	default:
		e = n.writeLine(op.Line, Modified, op.Data)
	}
	n.complete(op, Result{Acquired: op.Txn == TAS || op.Txn == SYNC, Entry: e})
}

// snarf acquires a passing unmodified line into a retained-tag slot in
// shared mode (Section 3), when enabled.
//
//multicube:fpexempt dispatched under snoopRow/snoopCol, which bump
func (n *Node) snarf(op *Op) {
	if !n.snarfEligible(op) {
		return
	}
	e := n.l2.Probe(op.Line)
	copy(e.Data, op.Data)
	n.setState(e, Shared)
	n.l2.MarkSnarf()
}
