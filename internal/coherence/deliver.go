package coherence

import (
	"math/bits"

	"multicube/internal/bus"
	"multicube/internal/mlt"
	"multicube/internal/topology"
)

// This file delivers bus operations. Every controller snoops both its
// buses, but each Appendix A procedure acts only at the positions the
// operation names: the claimant of the modified-line signal, the home
// column, a holder that will serve a request, those of a purged line. So
// each bus has one snooper, attached after the nodes and the memory
// module (which attach as requesters), and it enters only the controllers
// the operation addresses (DESIGN.md §5 decision 11). The handlers do
// not know: a controller left out would return without touching anything.
//
// Whom an operation addresses is written once, in the delivery table
// below: ClassOf names the operation's class, delivery its addressee.
// Two readers read it: System.addressed as positions along the bus, and
// internal/protocol's Addressed as a predicate over position atoms.

// DeliveryStats counts the snoopers' work over a machine's life.
type DeliveryStats struct {
	// NodeSnoops counts controllers entered to snoop an operation.
	NodeSnoops uint64
	// RowProbes and ColProbes count the operations whose probe phase
	// settled their wires.
	RowProbes, ColProbes uint64
	// OpsBuilt and OpsReused count the operations newOp allocated and reused.
	OpsBuilt, OpsReused uint64
}

// Delivered returns the snoopers' and newOp's counts. They are host work,
// not machine state: Save and Load leave them alone.
func (s *System) Delivered() DeliveryStats { return s.delivered }

// snooper delivers the operations of one bus: a row bus, or a column bus
// and its memory module.
type snooper struct {
	s     *System
	dim   Dim
	at    int     // the bus's row or column
	nodes []*Node // on this bus, in attach order
	mem   *Memory // the column's module; nil on a row bus
}

// Probe settles the wires of a row REQUEST and a column REQUEST|REMOVE;
// memory drives no wire. On a row, the columns whose table holds the
// line (one lookup) raise the modified-line signal in attach order, and
// the first that a SuppressSignal hook leaves alone claims it. On a
// column, the nodes holding the line Modified or Reserved (one lookup;
// under an Observer, every node) may assert will-serve, in attach order.
func (sn *snooper) Probe(_ *bus.Bus, pkt bus.Packet) {
	op := pkt.(*Op)
	switch s := sn.s; {
	case sn.dim == Row && op.Flags.Has(REQUEST):
		s.delivered.RowProbes++
		for cols := s.mlt.Columns(mlt.Line(op.Line)); cols != 0; cols &= cols - 1 {
			n := sn.nodes[bits.TrailingZeros64(cols)]
			if s.SuppressSignal != nil && s.SuppressSignal(n.id, op) {
				op.suppressed = true // injected fault: this controller stays silent
				continue
			}
			if !op.modified {
				op.modified, op.claimant = true, n.id
			}
		}
	case sn.dim == Col && op.Flags.Has(REQUEST|REMOVE):
		s.delivered.ColProbes++
		rows := uint64(1)<<s.cfg.N - 1
		if s.Observer == nil {
			rows, _ = s.owners[sn.at].Get(uint64(op.Line))
		}
		for ; rows != 0; rows &= rows - 1 {
			sn.nodes[bits.TrailingZeros64(rows)].probeCol(op)
		}
	}
}

// Snoop updates the column's table, enters the addressed nodes in attach
// order, then, on a column, the memory module if the operation is
// destined for it. With an Observer installed every node is entered, each
// through observeSnoop, so the observer sees the transitions of the whole
// bus. It is the last code to touch the operation, which it releases.
func (sn *snooper) Snoop(_ *bus.Bus, pkt bus.Packet) {
	op := pkt.(*Op)
	op.mustLive()
	s := sn.s
	c := ClassOf(sn.dim, op.Txn, op.Flags)
	tabled := sn.applyTable(c, op)
	var sharers, readers uint64 // of a purge's line, read off the holder index
	if c == rowPurge {
		sharers, _ = s.sharers[sn.at].Get(uint64(op.Line))
		for m := s.readers[sn.at]; m != 0; m &= m - 1 {
			if i := bits.TrailingZeros64(m); sn.nodes[i].pend.line == op.Line {
				readers |= 1 << i
			}
		}
	}
	to := s.addressed(sn.dim, c, op, sharers, readers)
	if s.Observer != nil {
		s.delivered.NodeSnoops += uint64(len(sn.nodes))
		for i, n := range sn.nodes {
			n.observeSnoop(sn.dim, op, to&(1<<i) != 0, tabled)
		}
	} else {
		s.delivered.NodeSnoops += uint64(bits.OnesCount64(to))
		for ; to != 0; to &= to - 1 {
			sn.nodes[bits.TrailingZeros64(to)].snoop(sn.dim, op)
		}
	}
	if sn.mem != nil && op.Flags.Has(MEMORY) {
		sn.mem.snoop(op)
	}
	s.release(op)
}

// applyTable makes a column INSERT's or REMOVE's table update once, where
// each controller updates its copy in the paper, records the outcome on
// op and bumps every node of the column, whose fingerprint holds its lines.
func (sn *snooper) applyTable(c OpClass, op *Op) bool {
	switch t, line := sn.s.mlt, mlt.Line(op.Line); c {
	case colRequestRemove, colWritebackRemove:
		op.mltHad = t.Remove(sn.at, line)
	case colOwnershipInsert, colInsert:
		op.mltHad = t.Contains(sn.at, line)
		op.victim, op.overflow = t.Insert(sn.at, line)
	default:
		return false
	}
	for _, n := range sn.nodes {
		n.gen++
	}
	return true
}

// An Addressee names the controllers along a bus an operation's
// procedure acts at. The home column and the claimant are positions on a
// row bus; only row classes name them. The originator is named by its
// position along the bus, so an operation addressed to it travels on the
// originator's own bus.
type Addressee uint8

const (
	ToAll                 Addressee = iota // every node
	ToClaimantElseHome                     // the claimant of the modified-line signal, else the home column
	ToOrigin                               // the originator
	ToOriginAndHome                        // the originator and the home column
	ToForwarder                            // the node in the originator's column (row bus) or row (column bus)
	ToForwarderAndServers                  // the forwarder and the nodes that asserted will-serve
	ToHome                                 // the home column
	ToNone                                 // no node; a MEMORY operation reaches the column's memory module
	ToPurged                               // shared copies off the home column, a READ of the line outstanding, and a reply's originator
)

// An OpClass is a kind of bus operation as delivery tells them apart.
type OpClass uint8

const (
	rowRequest OpClass = iota
	rowReadReply
	rowReadUpdateReply
	rowOwnershipReply
	rowUpdate
	rowPurge
	rowBroadcast
	colMemory
	colRequestRemove
	colReadReply
	colOwnershipInsert
	colInsert
	colWritebackRemove
	colBroadcast
)

// delivery is the table: whom each class of operation addresses.
var delivery = [...]Addressee{
	rowRequest:         ToClaimantElseHome,
	rowReadReply:       ToOrigin,
	rowReadUpdateReply: ToOriginAndHome,
	rowOwnershipReply:  ToForwarder, // READMOD, TAS and SYNC
	rowUpdate:          ToHome,
	rowPurge:           ToPurged, // PURGE, and a REPLY|PURGE that neither fails nor queues
	rowBroadcast:       ToAll,    // XFER, and replies that fail or queue
	colMemory:          ToNone,   // REQUEST|MEMORY, UPDATE|MEMORY
	colRequestRemove:   ToForwarderAndServers,
	colReadReply:       ToForwarder,
	colOwnershipInsert: ToOrigin,
	colInsert:          ToNone,
	colWritebackRemove: ToOrigin,
	colBroadcast:       ToAll, // XFER, every other reply
}

// ClassOf classifies an operation of transaction txn with flags f on a bus
// of dimension dim, in the precedence of snoopRow and snoopCol.
func ClassOf(dim Dim, txn Txn, f Flags) OpClass {
	if dim == Row {
		switch {
		case f.Has(REQUEST):
			return rowRequest
		case f.Has(XFER), f.Has(REPLY) && f&(FAIL|QUEUED) != 0:
		case f.Has(PURGE):
			return rowPurge
		case f.Has(REPLY):
			switch {
			case txn != READ:
				return rowOwnershipReply
			case f.Has(UPDATE):
				return rowReadUpdateReply
			default:
				return rowReadReply
			}
		case f.Has(UPDATE):
			return rowUpdate
		}
		return rowBroadcast
	}
	switch {
	case f.Has(REQUEST | REMOVE):
		return colRequestRemove
	case f.Has(REQUEST | MEMORY):
		return colMemory
	case f.Has(XFER), f.Has(REPLY) && f&(FAIL|QUEUED) != 0:
	case f.Has(REPLY) && txn == READ:
		return colReadReply
	case f.Has(REPLY | INSERT):
		return colOwnershipInsert
	case f.Has(REPLY):
	case f.Has(INSERT):
		return colInsert
	case f.Has(REMOVE):
		return colWritebackRemove
	case f.Has(UPDATE | MEMORY):
		return colMemory
	}
	return colBroadcast
}

// Addressee returns the class's row of the delivery table.
func (c OpClass) Addressee() Addressee { return delivery[c] }

// Four conditions beside the table widen delivery to the whole bus: a
// SuppressSignal hook on a row REQUEST (the suppressed node and its
// discard are decided at probe time), snarfing on a READ reply (any
// retained tag may capture it), an insert that overflowed the column's
// table (the displaced line's holder writes it back), and an Observer
// (Snoop). Suppressible, Snarfable and Overflowable report the classes
// the first three widen.
func (c OpClass) Suppressible() bool { return c == rowRequest }
func (c OpClass) Snarfable() bool {
	return c == rowReadReply || c == rowReadUpdateReply || c == colReadReply
}
func (c OpClass) Overflowable() bool { return c == colOwnershipInsert || c == colInsert }

// addressed reads the delivery table's row for op, of class c, as the set
// of positions along a bus of dimension dim — the column of a node on a
// row bus, its row on a column bus — bit i for position i. A node outside
// the set would take no action, change no state and count nothing. A
// purge reads sharers and readers, the positions holding its line Shared
// and those whose outstanding READ is for it.
func (s *System) addressed(dim Dim, c OpClass, op *Op, sharers, readers uint64) uint64 {
	if s.SuppressSignal != nil && c.Suppressible() || s.cfg.Snarf && c.Snarfable() || op.overflow && c.Overflowable() {
		return 1<<s.cfg.N - 1
	}
	switch delivery[c] {
	case ToClaimantElseHome:
		if op.modified {
			return 1 << op.claimant.Col
		}
		return 1 << s.homeColumn(op.Line)
	case ToOrigin, ToForwarder:
		if dim == Row {
			return 1 << op.Origin.Col
		}
		return 1 << op.Origin.Row
	case ToForwarderAndServers:
		return 1<<op.Origin.Row | op.servers
	case ToOriginAndHome:
		return 1<<op.Origin.Col | 1<<s.homeColumn(op.Line)
	case ToHome:
		return 1 << s.homeColumn(op.Line)
	case ToNone:
		return 0
	case ToPurged:
		to := sharers&^(1<<s.homeColumn(op.Line)) | readers
		if op.Flags.Has(REPLY) {
			to |= 1 << op.Origin.Col
		}
		return to
	}
	return 1<<s.cfg.N - 1
}

// Addressed is addressed for op when the probe phase raised the
// modified-line signal at claimant (nil: nobody did) and will-serve at
// servers, the holder index reads sharers and readers, and its table
// insert overflowed if overflow.
func (s *System) Addressed(dim Dim, op Op, claimant *topology.Coord, servers, sharers, readers uint64, overflow bool) uint64 {
	if claimant != nil {
		op.modified, op.claimant = true, *claimant
	}
	op.servers, op.overflow = servers, overflow
	return s.addressed(dim, ClassOf(dim, op.Txn, op.Flags), &op, sharers, readers)
}
