// The package participates in the explorer's determinism contract: no
// wall clock, no map-order dependence, no scheduling outside the chooser
// seam. multicube-vet enforces this (see internal/analysis). It also
// carries the two-level hierarchy's multilevel-inclusion discipline:
// every snooping-cache eviction must purge the registered upper-level
// (processor cache) views, statically enforced by the vet inclusion pass
// against purgeUpper and dynamically by CheckInvariants invariant 6.
//
//multicube:deterministic
//multicube:inclusion
package coherence

import (
	"fmt"

	"multicube/internal/cache"
	"multicube/internal/linetable"
	"multicube/internal/mlt"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// Result reports the outcome of a completed processor transaction.
type Result struct {
	// Acquired reports test-and-set or SYNC success.
	Acquired bool
	// MustSpin reports that a SYNC acquire degenerated and the caller
	// should fall back to spinning with test-and-set (Section 4's
	// degenerate path).
	MustSpin bool
	// Trace holds the transaction's bus-operation accounting; zero for
	// operations satisfied locally without a transaction.
	Trace TxnTrace
	// Entry is the snooping-cache entry the line of a completed Read,
	// Write or Allocate is held in, so the caller's word access costs no
	// second lookup. It is good for the duration of the callback.
	Entry *cache.Entry
}

// pending is the one outstanding processor request of a controller.
// Requests are non-overlapping (Section 5's modeling assumption and the
// protocol's memoryless design): a node has at most one.
type pending struct {
	txn   Txn
	flags Flags // ALLOC carry-over
	line  cache.Line
	trace *TxnTrace
	done  func(Result)
	// poisoned records that an invalidating broadcast for this line
	// passed while our READ reply was in flight: the arriving data is
	// stale the moment it lands and must be discarded and re-requested.
	// (The snooping controller observes every operation on its buses, so
	// detecting this costs no extra hardware.)
	//
	//multicube:fpfield guard=Node
	poisoned bool
	// queued records that our SYNC join was admitted to the distributed
	// queue (a QUEUED notification arrived): our reserved copy is now
	// the queue tail and must answer requests routed to this column. A
	// reserved copy whose join is still in flight must stay silent.
	//
	//multicube:fpfield guard=Node
	queued bool
}

// NodeStats counts per-node protocol events.
type NodeStats struct {
	Reads         uint64 // processor read requests (hits and misses)
	Writes        uint64 // processor write requests
	ReadHits      uint64
	WriteHits     uint64
	Transactions  uint64 // bus transactions initiated
	Invalidations uint64 // lines purged by remote activity
	Reissues      uint64 // requests retransmitted after lost races
	Deferred      uint64 // requests bounced off a Reserved holder
}

// Node is one snooping-cache controller: a processor's large second-level
// cache, its modified line table, and its connections to one row bus and
// one column bus.
type Node struct {
	sys   *System
	id    topology.Coord
	l2    *cache.Cache
	table *mlt.Table

	rowIdx, colIdx int

	//multicube:fpfield
	pend *pending
	// pendBuf is what pend points to: a node has at most one transaction
	// outstanding and nothing keeps a *pending across kernel steps, so
	// beginning one allocates nothing.
	pendBuf pending
	// wbCont is the "continue request" for the outstanding WRITEBACK.
	//
	//multicube:fpfield
	wbCont func()
	// wbTrace is that WRITEBACK's trace, which the continuation captures:
	// kept here so Save reaches it once the operations carrying it are gone.
	wbTrace *TxnTrace

	// OnInvalidate, when set, is called whenever a line leaves the
	// snooping cache for coherence reasons; the machine layer uses it to
	// keep the write-through processor cache a strict subset.
	OnInvalidate func(line cache.Line)

	// purgedAt records when each line last left this cache, gating the
	// snarf optimization against stale in-flight replies.
	purgedAt linetable.Table[sim.Time]

	// enqueueFn is the body of every device-latency event this node
	// schedules (issueAfter), built once.
	enqueueFn func()

	// gen counts mutations of fingerprint-visible node state (L2, MLT,
	// pending transaction, wbCont). It is bumped conservatively at every
	// entry point that can mutate the node — processor-side APIs and the
	// two snoop dispatchers — which over-approximates actual change;
	// FPCache compares it to skip rehashing unchanged nodes.
	//
	//multicube:gencounter
	gen uint64

	stats NodeStats
}

func newNode(s *System, id topology.Coord) (*Node, error) {
	l2, err := cache.New(cache.Config{
		Lines:      s.cfg.CacheLines,
		Assoc:      s.cfg.CacheAssoc,
		BlockWords: s.cfg.BlockWords,
	})
	if err != nil {
		return nil, err
	}
	table, err := mlt.New(mlt.Config{Entries: s.cfg.MLTEntries, Assoc: s.cfg.MLTAssoc})
	if err != nil {
		return nil, err
	}
	n := &Node{
		sys: s, id: id, l2: l2, table: table,
	}
	n.enqueueFn = n.enqueue
	return n, nil
}

// ID returns the node's grid coordinate.
func (n *Node) ID() topology.Coord { return n.id }

// Cache exposes the snooping cache, primarily for the machine layer's
// word-level access and for invariant checks.
func (n *Node) Cache() *cache.Cache { return n.l2 }

// Table exposes the modified line table for invariant checks.
func (n *Node) Table() *mlt.Table { return n.table }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Busy reports whether a processor transaction is outstanding.
func (n *Node) Busy() bool { return n.pend != nil }

func (n *Node) onHomeColumn(line cache.Line) bool {
	return n.sys.homeColumn(line) == n.id.Col
}

// --- bus issue helpers -------------------------------------------------

func (n *Node) issueRow(op *Op) {
	n.sys.recordIntent(Row, op)
	if n.sys.Fault != nil && n.sys.Fault(Row, n.id, op) {
		n.sys.dropped++
		return
	}
	if op.trace != nil {
		op.trace.RowOps++
	}
	if n.sys.OpLog != nil {
		n.sys.OpLog(Row, n.id, op)
	}
	n.sys.rows[n.id.Row].Request(n.rowIdx, op)
}

func (n *Node) issueCol(op *Op) {
	n.sys.recordIntent(Col, op)
	if n.sys.Fault != nil && n.sys.Fault(Col, n.id, op) {
		n.sys.dropped++
		return
	}
	if op.trace != nil {
		op.trace.ColOps++
	}
	if n.sys.OpLog != nil {
		n.sys.OpLog(Col, n.id, op)
	}
	n.sys.cols[n.id.Col].Request(n.colIdx, op)
}

// issueRowAfter and issueColAfter model device latency (a cache lookup
// before the data can be driven) between snooping an operation and
// issuing the response. Protocol state was already updated at snoop time.
func (n *Node) issueRowAfter(d sim.Time, op *Op) { n.issueAfter(Row, d, op) }
func (n *Node) issueColAfter(d sim.Time, op *Op) { n.issueAfter(Col, d, op) }

func (n *Node) issueAfter(dim Dim, d sim.Time, op *Op) {
	op.issuer, op.dim = n.id, dim
	if d == 0 {
		n.issue(op)
		return
	}
	n.sys.recordIntent(dim, op)
	n.sys.k.AfterTagged(d, EnqueueTag{op}, n.enqueueFn)
}

// enqueue is the body of the events issueAfter schedules: the latency of
// the operation named by the event's tag is over.
func (n *Node) enqueue() { n.issue(n.sys.k.Dispatching().(EnqueueTag).Op) }

func (n *Node) issue(op *Op) {
	if op.dim == Row {
		n.issueRow(op)
	} else {
		n.issueCol(op)
	}
}

func (n *Node) recordCompletion(tr *TxnTrace) {
	n.sys.acct.recordCompletion(n.sys.k.Now(), tr)
}

// --- processor interface ------------------------------------------------

// Read performs a processor read reference for line. done is called
// (possibly synchronously, on a hit) when the line is readable in the
// snooping cache.
func (n *Node) Read(line cache.Line, done func(Result)) {
	n.gen++
	n.stats.Reads++
	if e, ok := n.l2.Access(line); ok {
		n.stats.ReadHits++
		done(Result{Entry: e})
		return
	}
	n.startTransaction(READ, 0, line, done)
}

// Write performs a processor write reference: it obtains the line in
// modified mode. The caller applies the actual word write through
// CacheEntry once done fires.
func (n *Node) Write(line cache.Line, done func(Result)) {
	n.gen++
	n.stats.Writes++
	if e, ok := n.l2.Access(line); ok {
		switch e.State {
		case Modified:
			n.stats.WriteHits++
			done(Result{Entry: e})
			return
		case Shared:
			// Write hit on a shared line: an upgrade READMOD, no victim
			// needed ("else if (line is shared) then READMOD (ROW,
			// REQUEST)").
			n.beginPending(READMOD, 0, line, done)
			n.issueRow(n.sys.addrOp(READMOD, REQUEST, n.id, line, n.pend.trace))
			return
		}
	}
	n.startTransaction(READMOD, 0, line, done)
}

// Allocate performs the ALLOCATE hint of Section 3: the processor intends
// to modify the entire line without regard to its prior contents, so the
// reply is an acknowledgement rather than data. On completion the line is
// resident in modified mode, zero-filled.
func (n *Node) Allocate(line cache.Line, done func(Result)) {
	n.gen++
	n.stats.Writes++
	if e, ok := n.l2.Access(line); ok && e.State == Modified {
		n.stats.WriteHits++
		done(Result{Entry: e})
		return
	}
	if e, ok := n.l2.Lookup(line); ok && e.State == Shared {
		n.beginPending(READMOD, ALLOC, line, done)
		n.issueRow(n.sys.addrOp(READMOD, REQUEST|ALLOC, n.id, line, n.pend.trace))
		return
	}
	n.startTransaction(READMOD, ALLOC, line, done)
}

// TestAndSet performs the remote test-and-set transaction of Section 4 on
// the line's LockWord. Result.Acquired reports success. Local copies are
// exploited to avoid bus operations where the protocol allows.
func (n *Node) TestAndSet(line cache.Line, done func(Result)) {
	n.gen++
	if e, ok := n.l2.Lookup(line); ok {
		switch e.State {
		case Modified:
			// The line is ours: test-and-set locally, no bus operation.
			if e.Data[LockWord] == 0 {
				e.Data[LockWord] = 1
				done(Result{Acquired: true})
			} else {
				done(Result{})
			}
			return
		case Reserved:
			// "A line that has been reserved locally with the SYNC
			// transaction will be recognized when a test-and-set is
			// initiated, and the test-and-set will fail without
			// requiring a bus operation."
			done(Result{})
			return
		case Shared:
			if e.Data[LockWord] != 0 {
				// Coherent shared copy already shows the lock held:
				// fail locally (the test of test-and-test-and-set,
				// provided by the hardware).
				done(Result{})
				return
			}
		}
	}
	n.startTransaction(TAS, 0, line, done)
}

// WriteBack initiates an explicit WRITEBACK transaction for a modified
// line: main memory is made current and the line changes to global state
// unmodified, remaining cached shared. done fires when the processor
// request may continue. A line not held modified completes immediately.
func (n *Node) WriteBack(line cache.Line, done func(Result)) {
	n.gen++
	e, ok := n.l2.Lookup(line)
	if !ok || e.State != Modified {
		done(Result{})
		return
	}
	trace := &TxnTrace{Txn: WRITEBACK, Line: line, Started: n.sys.k.Now()}
	//multicube:fpexempt continuation of WriteBack, which bumped at entry
	n.startWriteback(line, trace, func() {
		// "mark line shared" — the generic (non-victim) path.
		if e, ok := n.l2.Lookup(line); ok && e.State == Modified {
			e.State = Shared
		}
		n.recordCompletion(trace)
		done(Result{Trace: *trace})
	})
}

// CacheEntry returns the snooping-cache entry for line, or nil. The
// machine layer uses it for word-level loads and stores after Read/Write
// complete.
func (n *Node) CacheEntry(line cache.Line) *cache.Entry {
	e, ok := n.l2.Lookup(line)
	if !ok {
		return nil
	}
	return e
}

// --- transaction initiation ----------------------------------------------

//multicube:fpexempt called only from processor entry points, which bump
func (n *Node) beginPending(txn Txn, flags Flags, line cache.Line, done func(Result)) {
	if n.pend != nil {
		panic(fmt.Sprintf("coherence: node %v issued %v(%d) with %v(%d) outstanding",
			n.id, txn, line, n.pend.txn, n.pend.line))
	}
	n.stats.Transactions++
	tr := &TxnTrace{Txn: txn, Line: line, Started: n.sys.k.Now()}
	n.pendBuf = pending{txn: txn, flags: flags, line: line, trace: tr, done: done}
	n.pend = &n.pendBuf
}

// startTransaction is the miss path of the READ/READMOD/TAS initiation
// procedures: reserve space in the cache (writing back a modified victim
// first), then place the request on the row bus.
func (n *Node) startTransaction(txn Txn, flags Flags, line cache.Line, done func(Result)) {
	n.beginPending(txn, flags, line, done)
	v := n.l2.SelectVictim(line)
	if v != nil && v.State == Modified {
		victim := v.Line
		wbTrace := &TxnTrace{Txn: WRITEBACK, Line: victim, Started: n.sys.k.Now()}
		//multicube:fpexempt continuation of an entry point that bumped
		n.startWriteback(victim, wbTrace, func() {
			// "wait for continue; mark line invalid" — the victim slot
			// is freed for the incoming line.
			n.l2.Invalidate(victim)
			n.notifyInvalidate(victim)
			n.recordCompletion(wbTrace)
			n.issueRequest()
		})
		return
	}
	n.issueRequest()
}

// issueRequest places the outstanding transaction's request on the row
// bus: at initiation, and again when a poisoned reply is discarded.
func (n *Node) issueRequest() {
	p := n.pend
	n.issueRow(n.sys.addrOp(p.txn, REQUEST|p.flags, n.id, p.line, p.trace))
}

// startWriteback initiates WRITEBACK(COLUMN, REMOVE) for a modified line
// and runs cont when the protocol signals "continue request".
//
//multicube:fpexempt called only from entry points that bump
func (n *Node) startWriteback(line cache.Line, trace *TxnTrace, cont func()) {
	if n.wbCont != nil {
		panic(fmt.Sprintf("coherence: node %v has two outstanding writebacks", n.id))
	}
	n.wbCont, n.wbTrace = cont, trace
	n.issueCol(n.sys.addrOp(WRITEBACK, REMOVE, n.id, line, trace))
}

// complete finishes the outstanding transaction, if it matches.
//
//multicube:fpexempt called only under the snoop dispatchers, which bump
func (n *Node) complete(op *Op, res Result) {
	p := n.pend
	if p == nil || p.line != op.Line || p.txn != op.Txn {
		n.sys.acct.strays++
		return
	}
	n.pend = nil
	res.Trace = *p.trace
	n.recordCompletion(p.trace)
	p.done(res)
}

// matchesPending reports whether op is the reply our outstanding request
// is waiting for.
func (n *Node) matchesPending(op *Op) bool {
	return n.pend != nil && n.pend.line == op.Line && n.pend.txn == op.Txn
}

// notifyInvalidate tells the machine layer a line left the cache and
// timestamps the departure for snarf staleness checks.
func (n *Node) notifyInvalidate(line cache.Line) {
	n.purgedAt.Put(uint64(line), n.sys.k.Now())
	n.purgeUpper(line)
}

// purgeUpper drops the line from the registered upper-level (processor
// cache) views, maintaining multilevel inclusion. Split from
// notifyInvalidate for eviction paths that must not stamp purgedAt —
// after a Drop the entry leaves the cache entirely, so the snarf
// staleness gate (which requires a retained Invalid entry) never
// consults the timestamp, and stamping would perturb fingerprints for
// nothing.
//
//multicube:inclusion-purge
func (n *Node) purgeUpper(line cache.Line) {
	if n.OnInvalidate != nil {
		n.OnInvalidate(line)
	}
}

// writeLine installs data for the pending request's line and returns the
// entry. Installation never displaces a modified line: the initiation
// procedure wrote back and invalidated a modified victim before issuing
// the request, so the set has a free or clean slot.
//
//multicube:fpexempt called only under the snoop dispatchers, which bump
func (n *Node) writeLine(line cache.Line, state cache.State, data []uint64) *cache.Entry {
	v := n.l2.Insert(line, state, data)
	if v.Displaced && v.State == Modified {
		panic(fmt.Sprintf("coherence: node %v displaced modified line %d on fill", n.id, v.Line))
	}
	if v.Displaced && v.State != Invalid {
		n.notifyInvalidate(v.Line)
	}
	e, ok := n.l2.Lookup(line)
	if !ok {
		panic("coherence: line missing immediately after insert")
	}
	return e
}

// tableInsert adds an entry to this node's modified line table, handling
// overflow per Appendix A: the displaced entry's line, if held modified by
// this node, is written back to memory and marked shared. Every node in
// the column runs the same deterministic replacement, so exactly one node
// (the holder) performs the writeback.
//
//multicube:fpexempt called only under the snoop dispatchers, which bump
func (n *Node) tableInsert(line cache.Line, trace *TxnTrace) {
	victim, overflow := n.table.Insert(mlt.Line(line))
	if !overflow {
		return
	}
	ovLine := cache.Line(victim)
	e, ok := n.l2.Lookup(ovLine)
	if !ok {
		return
	}
	if e.Pinned && (e.State == Modified || e.State == Reserved) {
		// A sync-active lock line (a held lock, or a queue tail's
		// reserved placeholder): forcing it to global state unmodified —
		// or silently dropping its entry — would strand the waiter queue
		// (Section 4's degenerate purge). Re-insert its entry instead;
		// the table must be sized for the active lock working set
		// (footnote 7's sizing requirement).
		n.issueCol(n.sys.addrOp(READMOD, INSERT, n.id, ovLine, nil))
		return
	}
	if e.State != Modified {
		return
	}
	data := append([]uint64(nil), e.Data...)
	if n.onHomeColumn(ovLine) {
		n.issueCol(n.sys.dataOp(WRITEBACK, UPDATE|MEMORY, n.id, ovLine, data, trace))
	} else {
		n.issueRow(n.sys.dataOp(WRITEBACK, UPDATE, n.id, ovLine, data, trace))
	}
	e.State = Shared // "mark overflow line shared"
}
