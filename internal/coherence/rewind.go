package coherence

import (
	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/linetable"
	"multicube/internal/memory"
	"multicube/internal/mlt"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// This file makes the sequential machine rewindable in place: Save copies
// everything that changes while the machine runs into a caller-owned
// buffer, and Load writes it back into the same objects, so a model
// checker can return to a state it passed through without re-executing
// the path that led there (DESIGN.md §5.9).
//
// A machine cannot be copied — its pending events, its outstanding
// transactions and its writeback continuations are closures — but every
// one of those closures captures only the machine's own long-lived
// objects (nodes, buses, memory modules, the system, the driver) and
// immutable values, so restoring the data they read restores what they
// will do. The saved state therefore keeps the closures and is good only
// for the machine it was taken from. Two kinds of object are shared
// between the saved past and the abandoned future and are repaired by
// Load rather than copied: bus operations (their probe wires are only
// ever set, and a rewound operation is delivered again) and transaction
// traces (their bus-operation counts keep growing).
//
// A rewind copies only what moved. Each row bus, column bus, memory module
// and node — a component — carries a label, (epoch, generation), on the
// machine and in every buffer, and a label never names two contents: in
// an epoch a generation only rises, with every mutation, and whatever
// lowers it opens a new epoch from a clock that is never rewound — a
// Load that copies the component, once it moves on (until then it stands
// under the buffer's label). Where the machine's label equals
// the buffer's, Save and Load leave the component alone. Bare generations
// would not do: generation g of the abandoned future is not generation g
// of the next (DESIGN.md §5.9). The fingerprint cache keys its hashes on
// the same labels (System.current), so it is neither saved nor loaded: a
// hash taken under a label is good wherever the label comes back.

// Saved is a caller-owned buffer holding one machine at a kernel-step
// boundary. Save fills it and keeps its capacity, so a recycled buffer
// saves without allocating.
type Saved struct {
	sys     *System // the machine it was taken from; Load accepts no other
	k       sim.KernelState
	labels  []label // of rows, cols, mems and nodes, as in System.labels
	rows    []bus.Saved
	cols    []bus.Saved
	nodes   []nodeSaved // row-major
	mems    []memSaved
	acct    accounting
	dropped uint64
	// traces are the transaction traces reachable from the saved state,
	// with the values they had.
	traces []traceSaved
}

// label names one content of one component of one machine. On the machine
// gen is the generation at which a Load put the component under a buffer's
// epoch, or own for an epoch the machine drew.
type label struct{ epoch, gen uint64 }

const own = ^uint64(0) // no generation gets there

// fresh opens a new epoch of component i's own.
func (s *System) fresh(i int) {
	s.clock++
	s.labels[i] = label{s.clock, own}
}

// current returns the label of component i, now at generation gen: a
// component that has moved since a Load lent it its label is first given
// the epoch it has been in since. The zero label names nothing.
func (s *System) current(i int, gen uint64) label {
	at := &s.labels[i]
	if at.gen != gen && at.gen != own {
		s.fresh(i)
	}
	return label{at.epoch, gen}
}

// same reports whether st holds component i, now at generation gen, as it
// stands on the machine. If not, the caller copies it and the copy takes
// the original's label: st's the machine's, or in a Load the machine's
// st's.
func (s *System) same(st *Saved, i int, gen uint64, load bool) bool {
	at := &s.labels[i]
	switch now := s.current(i, gen); {
	case st.labels[i] != now && load:
		*at = st.labels[i]
		return false
	case st.labels[i] != now:
		st.labels[i] = now
		return false
	case s.onSkip != nil:
		s.onSkip(st, i, load)
	}
	return true
}

type nodeSaved struct {
	l2      cache.Saved
	table   mlt.Saved
	hasPend bool
	pend    pending
	wbCont  func()
	wbTrace *TxnTrace
	purged  linetable.Table[sim.Time]
	gen     uint64
	stats   NodeStats
}

type memSaved struct {
	store memory.Saved
	gen   uint64
}

type traceSaved struct {
	tr  *TxnTrace
	val TxnTrace
}

// Save copies the machine's state — kernel, buses, caches, modified line
// tables, memories, outstanding transactions and writebacks, purge
// history, generations and every counter — into st. Hooks, chooser and
// wiring are not state. Call it at a kernel-step boundary: between steps,
// or from a scheduling Chooser (see sim.Kernel.Save), never from inside
// an event. A component st already holds as it stands — a recycled
// buffer, mostly — is not copied again. The first Save stops operations
// from being recycled, for the machine's life.
func (s *System) Save(st *Saved) {
	s.saved = true
	n := s.cfg.N
	if st.sys != s {
		// Another machine's labels mean nothing here: start empty.
		*st = Saved{sys: s, labels: make([]label, len(s.labels)),
			rows: make([]bus.Saved, n), cols: make([]bus.Saved, n),
			nodes: make([]nodeSaved, n*n), mems: make([]memSaved, n)}
	}
	s.k.Save(&st.k)
	st.traces = st.traces[:0]
	for i := 0; i < n; i++ {
		if !s.same(st, i, s.rows[i].Gen(), false) {
			s.rows[i].Save(&st.rows[i])
		}
		if !s.same(st, n+i, s.cols[i].Gen(), false) {
			s.cols[i].Save(&st.cols[i])
		}
		if !s.same(st, 2*n+i, s.mems[i].gen, false) {
			s.mems[i].save(&st.mems[i])
		}
		for c, nd := range s.nodes[i] {
			if !s.same(st, (3+i)*n+c, nd.gen, false) {
				nd.save(&st.nodes[i*n+c])
			}
			if nd.pend != nil {
				st.addTrace(nd.pend.trace)
			}
			st.addTrace(nd.wbTrace)
		}
	}
	st.acct = s.acct
	st.dropped = s.dropped
	s.forEachLiveOp(func(op *Op) { st.addTrace(op.trace) })
}

// addTrace records a trace's current value. A trace shared by several
// operations is recorded once per holder, which costs a few words and
// spares a search; Load writes the same value each time.
func (st *Saved) addTrace(tr *TxnTrace) {
	if tr != nil {
		st.traces = append(st.traces, traceSaved{tr, *tr})
	}
}

// Load rewinds the machine to a state Save took from it, writing into
// the same nodes, buses and memories and leaving hooks, chooser and
// wiring alone. The generation counters come back with the state they
// count: generation g of the abandoned future is not generation g of the
// next one, so anything kept beside the machine keys on labels, as
// FPCache does, not on generations. The kernel's Executed restarts at zero.
// A component that stands as st holds it is left alone; one that is
// copied takes st's label with the content.
//
//multicube:fpexempt restores fingerprint-visible state together with the generations that count it
func (s *System) Load(st *Saved) {
	if st.sys != s {
		panic("coherence: Load of a state another machine saved")
	}
	s.k.Load(&st.k)
	n := s.cfg.N
	for i := 0; i < n; i++ {
		if !s.same(st, i, s.rows[i].Gen(), true) {
			s.rows[i].Load(&st.rows[i])
		}
		if !s.same(st, n+i, s.cols[i].Gen(), true) {
			s.cols[i].Load(&st.cols[i])
		}
		if !s.same(st, 2*n+i, s.mems[i].gen, true) {
			s.mems[i].load(&st.mems[i])
		}
		for c, nd := range s.nodes[i] {
			if !s.same(st, (3+i)*n+c, nd.gen, true) {
				nd.load(&st.nodes[i*n+c])
			}
		}
	}
	s.acct = st.acct
	s.dropped = st.dropped
	for _, t := range st.traces {
		*t.tr = t.val
	}
	// An operation alive at the boundary may have been delivered in the
	// future now abandoned and will be delivered again: its probe wires,
	// which delivery only ever sets, go back to unasserted.
	s.forEachLiveOp(func(op *Op) {
		op.modified, op.claimed, op.claimant = false, false, topology.Coord{}
		op.suppressed, op.holderPresent, op.willServe = false, false, false
	})
}

// forEachLiveOp visits every bus operation the machine still has to act
// on: queued on a bus, holding one, or waiting out a device latency in a
// pending kernel event. An operation may be visited more than once.
func (s *System) forEachLiveOp(fn func(*Op)) {
	visit := func(_ int, pkt bus.Packet) { fn(pkt.(*Op)) }
	for i := range s.rows {
		for _, b := range [2]*bus.Bus{s.rows[i], s.cols[i]} {
			b.ForEachQueued(visit)
			if pkt := b.Inflight(); pkt != nil {
				fn(pkt.(*Op))
			}
		}
	}
	s.k.ForEachPendingTag(func(tag any) {
		switch t := tag.(type) {
		case EnqueueTag:
			fn(t.Op)
		case bus.DeliverTag:
			fn(t.Pkt().(*Op))
		}
	})
}

func (n *Node) save(st *nodeSaved) {
	n.l2.Save(&st.l2)
	n.table.Save(&st.table)
	if st.hasPend = n.pend != nil; st.hasPend {
		st.pend = *n.pend
	} else {
		st.pend = pending{}
	}
	st.wbCont, st.wbTrace = n.wbCont, n.wbTrace
	st.purged.CopyFrom(&n.purgedAt)
	st.gen, st.stats = n.gen, n.stats
}

//multicube:fpexempt restores fingerprint-visible state together with the generation that counts it
func (n *Node) load(st *nodeSaved) {
	n.l2.Load(&st.l2)
	n.table.Load(&st.table)
	if st.hasPend {
		n.pendBuf = st.pend
		n.pend = &n.pendBuf
	} else {
		n.pend = nil
	}
	n.wbCont, n.wbTrace = st.wbCont, st.wbTrace
	n.purgedAt.CopyFrom(&st.purged)
	n.gen, n.stats = st.gen, st.stats
}

func (m *Memory) save(st *memSaved) {
	m.store.Save(&st.store)
	st.gen = m.gen
}

//multicube:fpexempt restores fingerprint-visible state together with the generation that counts it
func (m *Memory) load(st *memSaved) {
	m.store.Load(&st.store)
	m.gen = st.gen
}
