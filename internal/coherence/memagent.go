package coherence

import (
	"fmt"

	"multicube/internal/bus"
	"multicube/internal/memory"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// Memory is the main-memory module on one column bus. It executes the
// lines of the formal protocol marked with '*': supplying unmodified
// data, reissuing requests whose line is marked invalid (the tag-bit
// robustness of Section 3), initiating the purge broadcast for READMODs
// to unmodified data, and accepting memory updates.
type Memory struct {
	sys    *System
	col    int
	store  *memory.Store
	busIdx int

	// gen counts mutations of fingerprint-visible memory state; every
	// store mutation happens inside snoop, which bumps it.
	//
	//multicube:gencounter
	gen uint64

	// enqueueFn is the body of every device-latency event the module
	// schedules (issueAfter), built once.
	enqueueFn func()
}

// Store exposes the underlying storage for seeding and invariant checks.
func (m *Memory) Store() *memory.Store { return m.store }

// Column returns the column bus this module is attached to.
func (m *Memory) Column() int { return m.col }

func (m *Memory) issueAfter(d sim.Time, op *Op) {
	op.mustLive()
	if op.trace != nil {
		op.trace.ColOps++
	}
	if m.sys.OpLog != nil {
		m.sys.OpLog(Col, topology.Coord{Row: -1, Col: m.col}, op)
	}
	if d == 0 {
		m.sys.cols[m.col].Request(m.busIdx, op)
		return
	}
	op.issuer, op.dim = topology.Coord{Row: -1, Col: m.col}, Col
	m.sys.k.AfterFixed(d, EnqueueTag{op}, m.enqueueFn)
}

// enqueue is the body of the events issueAfter schedules: the access for
// the operation named by the event's tag is over.
func (m *Memory) enqueue() {
	m.sys.cols[m.col].Request(m.busIdx, m.sys.k.Dispatching().(EnqueueTag).Op)
}

// snoop dispatches a column operation destined for memory: the column's
// snooper delivers only the operations that carry MEMORY.
func (m *Memory) snoop(op *Op) {
	m.gen++
	switch {
	case op.Flags.Has(REQUEST | MEMORY):
		m.handleRequest(op)
	case op.Flags.Has(REPLY | UPDATE | MEMORY):
		/* READ (COLUMN, REPLY, UPDATE, MEMORY):
		 * write memory line and mark line valid */
		m.checkHome(op)
		m.store.Write(memory.Line(op.Line), op.Data)
	case op.Flags.Has(UPDATE|MEMORY) && !op.Flags.Has(REPLY):
		/* WRITEBACK (COLUMN, UPDATE, MEMORY):
		 * write memory line and mark line valid */
		m.checkHome(op)
		m.store.Write(memory.Line(op.Line), op.Data)
	}
}

func (m *Memory) checkHome(op *Op) {
	if m.sys.homeColumn(op.Line) != m.col {
		panic(fmt.Sprintf("coherence: memory on column %d received op %v for home column %d",
			m.col, op, m.sys.homeColumn(op.Line)))
	}
}

/*
column bus request for unmodified data; memory supplies the desired

	data if the line is valid, else it reissues the request
*/
//multicube:fpexempt dispatched under snoop, which bumps
func (m *Memory) handleRequest(op *Op) {
	m.checkHome(op)
	line := memory.Line(op.Line)
	lat := bus.MemoryLatency
	if !m.store.Valid(line) {
		// The modified line tables were in an inconsistent state when
		// this request was routed here; retransmit it as a request for
		// modified data.
		m.store.CountReissue()
		flags := REQUEST | REMOVE | (op.Flags & ALLOC)
		m.issueAfter(lat, m.sys.addrOp(op.Txn, flags, op.Origin, op.Line, op.trace))
		return
	}
	switch op.Txn {
	case READ:
		m.issueAfter(lat, m.readOp(READ, REPLY|NOPURGE, op))
	case READMOD:
		reply := m.readOp(READMOD, REPLY|PURGE|(op.Flags&ALLOC), op)
		m.store.Invalidate(line)
		m.issueAfter(lat, reply)
	case TAS, SYNC:
		// The test-and-set executes in memory when the line is
		// unmodified. Success moves the line (with the lock taken) to
		// the requester exactly as a READMOD; failure returns only the
		// notification and memory keeps the line.
		reply := m.readOp(op.Txn, REPLY|PURGE, op)
		if reply.Data[LockWord] != 0 {
			m.sys.release(reply)
			m.issueAfter(lat, m.sys.addrOp(op.Txn, REPLY|FAIL, op.Origin, op.Line, op.trace))
			return
		}
		reply.Data[LockWord] = 1
		m.store.Invalidate(line)
		m.issueAfter(lat, reply)
	default:
		panic(fmt.Sprintf("coherence: memory received request with transaction %v", op.Txn))
	}
}

// readOp builds a reply to op carrying the line as memory holds it, read
// straight into the reply's block; for an ALLOCATE, an acknowledgement.
func (m *Memory) readOp(txn Txn, flags Flags, op *Op) *Op {
	if flags.Has(ALLOC) {
		return m.sys.addrOp(txn, flags, op.Origin, op.Line, op.trace)
	}
	reply := m.sys.dataOp(txn, flags, op.Origin, op.Line, nil, op.trace)
	m.store.ReadInto(memory.Line(op.Line), reply.Data)
	return reply
}
