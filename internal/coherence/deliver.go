package coherence

import "multicube/internal/bus"

// This file delivers bus operations. Every controller snoops both its
// buses, but each Appendix A procedure acts only at the positions the
// operation names: the claimant of the modified-line signal, the home
// column, the originator, or the forwarder on the originator's row or
// column. So each bus has one snooper, attached after the nodes and the
// memory module (which attach as requesters), and it enters only the
// controllers the operation addresses (DESIGN.md §5 decision 11). The
// handlers do not know: a controller left out would return without
// touching anything.

// DeliveryStats counts the snoopers' work over a machine's life.
type DeliveryStats struct {
	// NodeSnoops counts controllers entered to snoop an operation.
	NodeSnoops uint64
	// RowProbes and ColProbes count the operations whose probe phase
	// walked the nodes of their bus.
	RowProbes, ColProbes uint64
}

// Delivered returns the snoopers' counts. They are host work, not
// machine state: Save and Load leave them alone.
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
// so the observer sees the transitions of the whole bus.
func (sn *snooper) Snoop(_ *bus.Bus, pkt bus.Packet) {
	op := pkt.(*Op)
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
}

// addressed returns the positions along a bus of dimension dim — the
// column of a node on a row bus, its row on a column bus — of the nodes
// op is delivered to: at most two, ascending, -1 for none; or all of
// them. It mirrors the dispatch of snoopRow and snoopCol: a node outside
// the set would take no action, change no state and count nothing. Three
// things widen the set to the whole bus: a SuppressSignal hook (for a
// row REQUEST), snarfing (for a READ reply, which any retained tag may
// capture), and an Observer (Snoop).
func (s *System) addressed(dim Dim, op *Op) (first, second int, all bool) {
	f := op.Flags
	if dim == Row {
		switch {
		case f.Has(REQUEST):
			switch {
			case s.SuppressSignal != nil:
				return -1, -1, true
			case op.modified:
				return op.claimant.Col, -1, false // the claimant forwards
			}
			return s.homeColumn(op.Line), -1, false // the home column answers
		case f.Has(XFER):
		case f.Has(REPLY):
			switch {
			case f&(FAIL|QUEUED|PURGE) != 0:
			case op.Txn != READ:
				return op.Origin.Col, -1, false // the originator or its column's forwarder
			case s.cfg.Snarf:
			case f.Has(UPDATE):
				return pair(op.Origin.Col, s.homeColumn(op.Line))
			default:
				return op.Origin.Col, -1, false
			}
		case f.Has(UPDATE):
			return s.homeColumn(op.Line), -1, false
		}
		return -1, -1, true
	}
	switch {
	case f.Has(REQUEST | REMOVE):
	case f.Has(REQUEST | MEMORY):
		return -1, -1, false
	case f.Has(XFER):
	case f.Has(REPLY):
		if f&(FAIL|QUEUED) == 0 && op.Txn == READ && !s.cfg.Snarf {
			return op.Origin.Row, -1, false // the originator or its row's forwarder
		}
	case f.Has(INSERT), f.Has(REMOVE):
	case f.Has(UPDATE | MEMORY):
		return -1, -1, false
	}
	return -1, -1, true
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
