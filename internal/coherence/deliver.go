package coherence

import (
	"multicube/internal/bus"
	"multicube/internal/topology"
)

// This file delivers bus operations. Every controller snoops both its
// buses, but each Appendix A procedure acts only at the positions the
// operation names: the claimant of the modified-line signal, the home
// column, the originator, or the forwarder on the originator's row or
// column. So each bus has one snooper, attached after the nodes and the
// memory module (which attach as requesters), and it enters only the
// controllers the operation addresses (DESIGN.md §5 decision 11). The
// handlers do not know: a controller left out would return without
// touching anything.
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
	// walked the nodes of their bus.
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
	nodes []*Node // on this bus, in attach order
	mem   *Memory // the column's module; nil on a row bus
}

// Probe walks the bus's nodes for the only operations their probes act
// on: a row REQUEST (the modified-line signal) and a column
// REQUEST|REMOVE (holder-present and will-serve). Memory drives no wire.
func (sn *snooper) Probe(_ *bus.Bus, pkt bus.Packet) {
	op := pkt.(*Op)
	switch {
	case sn.dim == Row && op.Flags.Has(REQUEST):
		sn.s.delivered.RowProbes++
		for _, n := range sn.nodes {
			n.probeRow(op)
		}
	case sn.dim == Col && op.Flags.Has(REQUEST|REMOVE):
		sn.s.delivered.ColProbes++
		for _, n := range sn.nodes {
			n.probeCol(op)
		}
	}
}

// Snoop enters the addressed nodes in attach order, then, on a column,
// the memory module if the operation is destined for it. With an
// Observer installed every node is entered, each through observeSnoop,
// so the observer sees the transitions of the whole bus. It is the last
// code to touch the operation, which it releases (System.release).
func (sn *snooper) Snoop(_ *bus.Bus, pkt bus.Packet) {
	op := pkt.(*Op)
	op.mustLive()
	s := sn.s
	first, second, all := s.addressed(sn.dim, op)
	switch {
	case s.Observer != nil:
		s.delivered.NodeSnoops += uint64(len(sn.nodes))
		for i, n := range sn.nodes {
			n.observeSnoop(sn.dim, op, all || i == first || i == second)
		}
	case all:
		s.delivered.NodeSnoops += uint64(len(sn.nodes))
		for _, n := range sn.nodes {
			n.snoop(sn.dim, op)
		}
	default:
		for _, i := range [2]int{first, second} {
			if i >= 0 {
				s.delivered.NodeSnoops++
				sn.nodes[i].snoop(sn.dim, op)
			}
		}
	}
	if sn.mem != nil && op.Flags.Has(MEMORY) {
		sn.mem.snoop(op)
	}
	s.release(op)
}

// An Addressee names the controllers along a bus an operation's
// procedure acts at. The home column and the claimant are positions on a
// row bus; only row classes name them. The originator is named by its
// position along the bus, so an operation addressed to it travels on the
// originator's own bus.
type Addressee uint8

const (
	ToAll              Addressee = iota // every node
	ToClaimantElseHome                  // the claimant of the modified-line signal, else the home column
	ToOrigin                            // the originator
	ToOriginAndHome                     // the originator and the home column
	ToForwarder                         // the node in the originator's column (row bus) or row (column bus)
	ToHome                              // the home column
	ToMemory                            // the column's memory module only
)

// An OpClass is a kind of bus operation as delivery tells them apart.
type OpClass uint8

const (
	rowRequest OpClass = iota
	rowReadReply
	rowReadUpdateReply
	rowOwnershipReply
	rowUpdate
	rowBroadcast
	colRequestMemory
	colReadReply
	colUpdateMemory
	colBroadcast
)

// delivery is the table: whom each class of operation addresses.
var delivery = [...]Addressee{
	rowRequest:         ToClaimantElseHome,
	rowReadReply:       ToOrigin,
	rowReadUpdateReply: ToOriginAndHome,
	rowOwnershipReply:  ToForwarder, // READMOD, TAS and SYNC
	rowUpdate:          ToHome,
	rowBroadcast:       ToAll, // XFER, PURGE, and replies that fail, queue or purge
	colRequestMemory:   ToMemory,
	colReadReply:       ToForwarder,
	colUpdateMemory:    ToMemory,
	colBroadcast:       ToAll, // REQUEST|REMOVE, XFER, INSERT, REMOVE, every other reply
}

// ClassOf classifies an operation of transaction txn with flags f on a bus
// of dimension dim, in the precedence of snoopRow and snoopCol.
func ClassOf(dim Dim, txn Txn, f Flags) OpClass {
	if dim == Row {
		switch {
		case f.Has(REQUEST):
			return rowRequest
		case f.Has(XFER):
		case f.Has(REPLY):
			switch {
			case f&(FAIL|QUEUED|PURGE) != 0:
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
	case f.Has(REQUEST | MEMORY):
		return colRequestMemory
	case f.Has(XFER):
	case f.Has(REPLY):
		if f&(FAIL|QUEUED) == 0 && txn == READ {
			return colReadReply
		}
	case f.Has(UPDATE|MEMORY) && f&(INSERT|REMOVE) == 0:
		return colUpdateMemory
	}
	return colBroadcast
}

// Addressee returns the class's row of the delivery table.
func (c OpClass) Addressee() Addressee { return delivery[c] }

// Three conditions beside the table widen delivery to the whole bus: a
// SuppressSignal hook on a row REQUEST (the suppressed node and its
// discard are decided at probe time), snarfing on a READ reply (any
// retained tag may capture it), and an Observer (Snoop). Suppressible
// and Snarfable report the classes the first two widen.
func (c OpClass) Suppressible() bool { return c == rowRequest }
func (c OpClass) Snarfable() bool {
	return c == rowReadReply || c == rowReadUpdateReply || c == colReadReply
}

// addressed reads op's row of the delivery table as positions along a
// bus of dimension dim — the column of a node on a row bus, its row on a
// column bus: at most two, ascending, -1 for none; or all of them. A node
// outside the set would take no action, change no state and count
// nothing.
func (s *System) addressed(dim Dim, op *Op) (first, second int, all bool) {
	c := ClassOf(dim, op.Txn, op.Flags)
	if s.SuppressSignal != nil && c.Suppressible() || s.cfg.Snarf && c.Snarfable() {
		return -1, -1, true
	}
	switch delivery[c] {
	case ToClaimantElseHome:
		if op.modified {
			return op.claimant.Col, -1, false
		}
		return s.homeColumn(op.Line), -1, false
	case ToOrigin, ToForwarder:
		if dim == Row {
			return op.Origin.Col, -1, false
		}
		return op.Origin.Row, -1, false
	case ToOriginAndHome:
		return pair(op.Origin.Col, s.homeColumn(op.Line))
	case ToHome:
		return s.homeColumn(op.Line), -1, false
	case ToMemory:
		return -1, -1, false
	}
	return -1, -1, true
}

// Addressed is addressed for op when the probe phase raised the
// modified-line signal at claimant, or did not raise it (nil).
func (s *System) Addressed(dim Dim, op Op, claimant *topology.Coord) (first, second int, all bool) {
	if claimant != nil {
		op.modified, op.claimed, op.claimant = true, true, *claimant
	}
	return s.addressed(dim, &op)
}

// pair orders two positions, dropping a duplicate.
func pair(a, b int) (first, second int, all bool) {
	switch {
	case a == b:
		return a, -1, false
	case a > b:
		return b, a, false
	}
	return a, b, false
}
