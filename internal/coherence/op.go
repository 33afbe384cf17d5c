// Package coherence implements the Wisconsin Multicube cache consistency
// protocol of Section 3 and Appendix A, plus the synchronization
// transactions of Section 4 (remote test-and-set and the SYNC distributed
// queue), over the grid of buses.
//
// The implementation mirrors the paper's formal description: each unique
// combination of transaction type and operation parameters is a separate
// handler, nodes are memoryless (no per-operation state beyond their own
// outstanding processor request), and all queues are FIFO. Lines marked
// with the paper's '*' — those executed by the memory unit — live on the
// Memory agent.
package coherence

import (
	"fmt"
	"strings"

	"multicube/internal/cache"
	"multicube/internal/mlt"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// Txn is a transaction type. READ results from a read miss, READMOD from
// a write miss, WRITEBACK from the replacement of a modified line.
// ALLOCATE is the READMOD variant of Section 3 that returns an
// acknowledgement instead of data; TAS and SYNC are the synchronization
// transactions of Section 4.
type Txn uint8

const (
	READ Txn = iota
	READMOD
	WRITEBACK
	TAS
	SYNC
)

var txnNames = [...]string{"READ", "READMOD", "WRITEBACK", "TAS", "SYNC"}

func (t Txn) String() string {
	if int(t) < len(txnNames) {
		return txnNames[t]
	}
	return fmt.Sprintf("Txn(%d)", uint8(t))
}

// Flags are the bus operation parameters of Appendix A, plus the
// extensions needed by ALLOCATE, TAS and SYNC.
type Flags uint16

const (
	// REQUEST marks a request for a line.
	REQUEST Flags = 1 << iota
	// REPLY marks a reply containing the line or an acknowledge.
	REPLY
	// INSERT inserts an entry into the modified line tables of a column.
	INSERT
	// REMOVE removes an entry from the modified line tables of a column.
	REMOVE
	// UPDATE marks an operation requiring a memory update.
	UPDATE
	// PURGE marks an operation requiring a line purge.
	PURGE
	// NOPURGE indicates no purge is needed (column bus reply to READ).
	NOPURGE
	// MEMORY marks an operation destined for memory.
	MEMORY
	// ALLOC marks the ALLOCATE variant of a READMOD: the reply is an
	// acknowledgement rather than data.
	ALLOC
	// FAIL marks a failed test-and-set reply (notification only; the
	// line stays where it is).
	FAIL
	// XFER marks a SYNC lock handoff: the line is forwarded directly to
	// the node at the head of the distributed queue.
	XFER
	// QUEUED marks a SYNC reply telling the requester it has joined the
	// queue and should wait for an XFER.
	QUEUED
)

var flagNames = []struct {
	f    Flags
	name string
}{
	{REQUEST, "REQUEST"}, {REPLY, "REPLY"}, {INSERT, "INSERT"},
	{REMOVE, "REMOVE"}, {UPDATE, "UPDATE"}, {PURGE, "PURGE"},
	{NOPURGE, "NOPURGE"}, {MEMORY, "MEMORY"}, {ALLOC, "ALLOC"},
	{FAIL, "FAIL"}, {XFER, "XFER"}, {QUEUED, "QUEUED"},
}

func (f Flags) String() string {
	var parts []string
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			parts = append(parts, fn.name)
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, "|")
}

// Has reports whether all of the given flags are set.
func (f Flags) Has(want Flags) bool { return f&want == want }

// Dim says which kind of bus an operation travels on.
type Dim uint8

const (
	Row Dim = iota
	Col
)

func (d Dim) String() string {
	if d == Row {
		return "ROW"
	}
	return "COLUMN"
}

// TxnTrace accumulates per-transaction bus-operation counts; every
// operation derived from the original request shares the originator's
// trace. The ops experiment (Section 3/6 claims) reads these.
type TxnTrace struct {
	Txn     Txn
	Line    cache.Line
	RowOps  int
	ColOps  int
	Started sim.Time
}

// Ops returns the total bus operations attributed to the transaction.
func (t *TxnTrace) Ops() int { return t.RowOps + t.ColOps }

// Op is one bus operation: up to four fields on the real bus (type,
// originating node id for routing replies, line address, and possibly the
// line contents), plus simulation bookkeeping.
type Op struct {
	Txn    Txn
	Flags  Flags
	Origin topology.Coord
	Line   cache.Line
	// Data is the line contents for data-carrying operations, nil for
	// address-and-command operations: the operation's own block, filled
	// by its builder and not written once issued. A relay copies it, so
	// a payload lives exactly as long as its operation.
	Data []uint64
	// Target addresses a SYNC XFER handoff, which is destined for a
	// specific queue member rather than the operation's originator.
	Target topology.Coord

	// modified is the wired-OR row-bus "modified line" signal, supplied
	// during the Probe phase by the (at most one) node whose modified
	// line table holds the line. claimant, set with it, arbitrates the
	// forward when more than one column's table transiently holds the
	// line (entries can be duplicated across columns for an instant
	// while a stale entry awaits its REMOVE): exactly one node — the
	// first prober, matching a hardware priority chain — forwards the
	// request onto its column.
	modified bool
	claimant topology.Coord
	// suppressed records a SuppressSignal fault-injection decision made
	// at probe time, so the probe and snoop phases of the same operation
	// fail consistently (a real dead controller is dead for both).
	suppressed bool
	// servers is the wired-OR column-bus will-serve signal, a bit per row
	// asserted during the probe phase by a node that will respond to this
	// REQUEST|REMOVE. If no node asserts it, the request would die with
	// the table entry already removed (e.g. the queue tail's admission is
	// still in flight, or the entry went stale); the controller on the
	// originator's row then restores the entry and retransmits — the same
	// revival idiom the protocol uses for lost races.
	servers          uint64
	mltHad, overflow bool     // the column's table update (applyTable): line held before,
	victim           mlt.Line // and displaced by an overflowing insert

	occ   sim.Time
	trace *TxnTrace
	// born is when the data payload was captured from its authoritative
	// source (a cache or memory). Forwarded replies inherit it, so a
	// snooping controller can refuse to snarf data older than its last
	// invalidation of the line.
	born sim.Time
	// issuer and dim say, for an operation issued after a device latency,
	// which agent enqueues it and on which of its buses; the pending
	// event's EnqueueTag reports them.
	issuer topology.Coord
	dim    Dim

	// fpBase memoizes the row-independent part of the operation's
	// fingerprint hash (FPCache). Every fingerprint-visible field above is
	// immutable once the op becomes visible to a fingerprint (the probe
	// wires are rebuilt per delivery and are not hashed), so the memo
	// never goes stale.
	fpBaseOK bool
	fpBase   uint64
	// buf is the payload block the operation keeps across reuse, and
	// released marks it as on the free list (System.release): issuing or
	// delivering it then panics, until newOp hands it out again.
	buf      []uint64
	released bool
}

// mustLive panics on a released operation, whose contents are not its own.
func (o *Op) mustLive() {
	if o.released {
		panic(fmt.Sprintf("coherence: %v used after release", o))
	}
}

// Occupancy implements bus.Packet.
func (o *Op) Occupancy() sim.Time { return o.occ }

// Trace returns the transaction trace the operation belongs to (may be
// nil for untraced operations such as overflow writebacks).
func (o *Op) Trace() *TxnTrace { return o.trace }

func (o *Op) String() string {
	d := "addr"
	if o.Data != nil {
		d = "data"
	}
	return fmt.Sprintf("%v(%v) line=%d origin=%v %s", o.Txn, o.Flags, o.Line, o.Origin, d)
}
