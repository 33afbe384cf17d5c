package coherence

import (
	"fmt"

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
	m.sys.k.AfterTagged(d, EnqueueTag{op}, m.enqueueFn)
}

// enqueue is the body of the events issueAfter schedules: the access for
// the operation named by the event's tag is over.
func (m *Memory) enqueue() {
	m.sys.cols[m.col].Request(m.busIdx, m.sys.k.Dispatching().(EnqueueTag).Op)
}

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
	lat := m.sys.cfg.Timing.MemoryLatency
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
		data := m.store.Read(line)
		m.issueAfter(lat, m.sys.dataOp(READ, REPLY|NOPURGE, op.Origin, op.Line, data, op.trace))
	case READMOD:
		var data []uint64
		if !op.Flags.Has(ALLOC) {
			data = m.store.Read(line)
		}
		m.store.Invalidate(line)
		m.issueAfter(lat, m.sys.replyOp(READMOD, REPLY|PURGE|(op.Flags&ALLOC), op.Origin, op.Line, data, op.trace))
	case TAS, SYNC:
		// The test-and-set executes in memory when the line is
		// unmodified. Success moves the line (with the lock taken) to
		// the requester exactly as a READMOD; failure returns only the
		// notification and memory keeps the line.
		data := m.store.Read(line)
		if data[LockWord] != 0 {
			m.issueAfter(lat, m.sys.addrOp(op.Txn, REPLY|FAIL, op.Origin, op.Line, op.trace))
			return
		}
		data[LockWord] = 1
		m.store.Invalidate(line)
		m.issueAfter(lat, m.sys.dataOp(op.Txn, REPLY|PURGE, op.Origin, op.Line, data, op.trace))
	default:
		panic(fmt.Sprintf("coherence: memory received request with transaction %v", op.Txn))
	}
}
