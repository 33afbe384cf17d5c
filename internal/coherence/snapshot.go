package coherence

import (
	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/fphash"
	"multicube/internal/memory"
	"multicube/internal/mlt"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// This file computes canonical fingerprints of a machine's complete
// protocol state for the model checker's visited-state table. Two states
// with equal fingerprints are (modulo hash collision) behaviorally
// identical: every component that can influence future protocol behavior
// is hashed, and everything that cannot — statistics, transaction traces,
// absolute times — is excluded.
//
// Row symmetry: the protocol treats rows interchangeably (home columns
// are a function of the line address alone), so the fingerprint accepts a
// row relabeling and the checker takes the minimum over all of them.
// Columns are symmetric only conditionally — the home-column interleaving
// pins each line to a specific column bus — so FingerprintRC additionally
// accepts a column relabeling, sound exactly when it fixes the home
// column of every line the run can touch (the caller's obligation;
// internal/mc derives the admissible set from the scenario).

// Fingerprint hashes the complete protocol-visible machine state under
// the given row relabeling: caches, modified line tables, pending
// processor transactions, memory contents and valid bits, bus queues and
// in-flight operations, and pending kernel events.
//
// perm maps physical row index to canonical row index; nil means
// identity. extraTag, when non-nil, is consulted for kernel event tags
// the coherence layer does not recognize (the model-check driver's own
// events); it returns a stable hash contribution and true, or false to
// hash the tag as an opaque unknown.
//
// Bus queues are hashed as per-source subsequences (sorted by canonical
// source) rather than as a single interleaved sequence: with deferred
// grants, arbitration order among distinct sources is a choice the
// explorer already branches on, while per-source FIFO order is fixed by
// the hardware.
func (s *System) Fingerprint(perm []int, extraTag func(tag any) (uint64, bool)) uint64 {
	return s.FingerprintRC(perm, nil, extraTag)
}

// FingerprintRC is Fingerprint under a simultaneous row relabeling perm
// and column relabeling cperm (nil means identity for either). The
// column relabeling permutes node columns, memory modules, column-bus
// identities, row-bus source indices, and every hashed column
// coordinate. It is the caller's obligation that cperm fixes the home
// column of every line reachable in the run; FingerprintRC applies
// whatever relabeling it is handed.
func (s *System) FingerprintRC(perm, cperm []int, extraTag func(tag any) (uint64, bool)) uint64 {
	n := s.cfg.N
	if perm == nil || cperm == nil {
		if len(s.fpIdent) != n {
			s.fpIdent = make([]int, n)
			for i := range s.fpIdent {
				s.fpIdent[i] = i
			}
		}
		if perm == nil {
			perm = s.fpIdent
		}
		if cperm == nil {
			cperm = s.fpIdent
		}
	}
	if len(s.fpInv) != n {
		s.fpInv = make([]int, n)
	}
	inv := s.fpInv
	for phys, canon := range perm {
		inv[canon] = phys
	}
	if len(s.fpCInv) != n {
		s.fpCInv = make([]int, n)
	}
	cinv := s.fpCInv
	for phys, canon := range cperm {
		cinv[canon] = phys
	}

	h := fphash.New()

	permRow := func(r int) int {
		if r < 0 {
			return r
		}
		return perm[r]
	}
	permCol := func(c int) int {
		if c < 0 {
			return c
		}
		return cperm[c]
	}

	hashCoord := func(c topology.Coord) {
		h.Word(uint64(int64(permRow(c.Row))))
		h.Word(uint64(int64(permCol(c.Col))))
	}

	// opFP hashes one bus operation's protocol-visible fields. Transient
	// probe-phase fields (modified/claimant/suppressed/...), the trace
	// pointer, occupancy (a pure function of data presence) and the
	// absolute birth time are excluded. When snarfing is enabled, the
	// relation born <= purgedAt[line] per node IS protocol-visible (it
	// gates the snarf), so it is folded in as one bit per node even
	// though both absolute times are excluded.
	hashOp := func(op *Op) {
		h.Word(uint64(op.Txn))
		h.Word(uint64(op.Flags))
		h.Word(uint64(op.Line))
		hashCoord(op.Origin)
		if op.Flags&XFER != 0 {
			// Target is meaningful only for SYNC handoffs; on every
			// other op it is the zero coordinate, and permuting that
			// zero would break row-relabeling invariance of in-flight
			// states. XFER ops are already segregated by Flags above.
			hashCoord(op.Target)
		}
		h.Bit(op.Data != nil)
		for _, w := range op.Data {
			h.Word(w)
		}
		if s.cfg.Snarf && op.Txn == READ && op.Data != nil {
			for cr := 0; cr < n; cr++ {
				for cc := 0; cc < n; cc++ {
					nd := s.nodes[inv[cr]][cinv[cc]]
					t, ok := nd.purgedAt.Get(uint64(op.Line))
					h.Bit(ok && op.born <= t)
				}
			}
		}
	}

	// Nodes, in canonical (row, col) order.
	lines := make([][]mlt.Line, n)
	for c := range lines {
		lines[c] = s.mlt.AppendLines(c, nil)
	}
	for cr := 0; cr < n; cr++ {
		for cc := 0; cc < n; cc++ {
			nd := s.nodes[inv[cr]][cinv[cc]]
			h.Word(0x01)
			nd.l2.ForEach(func(e *cache.Entry) {
				h.Word(uint64(e.Line))
				h.Word(uint64(e.State))
				h.Bit(e.Pinned)
				for _, w := range e.Data {
					h.Word(w)
				}
			})
			h.Word(0x02)
			for _, l := range lines[nd.id.Col] { // already sorted
				h.Word(uint64(l))
			}
			h.Word(0x03)
			h.Bit(nd.pend != nil)
			if p := nd.pend; p != nil {
				h.Word(uint64(p.txn))
				h.Word(uint64(p.flags))
				h.Word(uint64(p.line))
				h.Bit(p.poisoned)
				h.Bit(p.queued)
			}
			h.Bit(nd.wbCont != nil)
		}
	}

	// Memory modules, in canonical column order.
	for cc := 0; cc < n; cc++ {
		h.Word(0x04)
		s.mems[cinv[cc]].store.ForEach(func(line memory.Line, valid bool, data []uint64) {
			h.Word(uint64(line))
			h.Bit(valid)
			for _, w := range data {
				h.Word(w)
			}
		})
	}

	// Buses. Both families are visited in canonical order; sources on a
	// row bus are column indices (relabeled by cperm), sources on a
	// column bus are row indices (relabeled by perm) with the memory
	// module's index mapping to itself.
	busID := func(b *bus.Bus) (uint64, uint64) {
		for r := 0; r < n; r++ {
			if s.rows[r] == b {
				return 0, uint64(perm[r])
			}
		}
		for c := 0; c < n; c++ {
			if s.cols[c] == b {
				return 1, uint64(cperm[c])
			}
		}
		return 2, 0
	}

	hashBus := func(b *bus.Bus, permSrc func(int) int) {
		h.Bit(b.Busy())
		if p := b.Inflight(); p != nil {
			hashOp(p.(*Op))
		}
		type group struct {
			src int
			ops []*Op
		}
		var groups []group
		idx := make(map[int]int)
		b.ForEachQueued(func(src int, pkt bus.Packet) {
			cs := permSrc(src)
			gi, ok := idx[cs]
			if !ok {
				gi = len(groups)
				idx[cs] = gi
				groups = append(groups, group{src: cs})
			}
			groups[gi].ops = append(groups[gi].ops, pkt.(*Op))
		})
		// Selection sort by canonical source: group counts are tiny.
		for i := range groups {
			min := i
			for j := i + 1; j < len(groups); j++ {
				if groups[j].src < groups[min].src {
					min = j
				}
			}
			groups[i], groups[min] = groups[min], groups[i]
		}
		for _, g := range groups {
			h.Word(uint64(int64(g.src)))
			h.Word(uint64(len(g.ops)))
			for _, op := range g.ops {
				hashOp(op)
			}
		}
	}

	rowSrc := func(src int) int { return cperm[src] } // sources are column indices
	for cr := 0; cr < n; cr++ {
		h.Word(0x05)
		hashBus(s.rows[inv[cr]], rowSrc)
	}
	colSrc := func(src int) int {
		if src < n {
			return perm[src] // node sources are row indices
		}
		return src // the memory module
	}
	for cc := 0; cc < n; cc++ {
		h.Word(0x06)
		hashBus(s.cols[cinv[cc]], colSrc)
	}

	// Pending kernel events, as a multiset (absolute times excluded: in
	// the checker's untimed interpretation only the set of enabled
	// events matters).
	var evs []uint64
	s.k.ForEachPending(func(at sim.Time, tag any) {
		eh := fphash.New()
		switch t := tag.(type) {
		case EnqueueTag:
			eh.Word(0x10)
			eh.Word(uint64(int64(permRow(t.Issuer().Row))))
			eh.Word(uint64(int64(permCol(t.Issuer().Col))))
			eh.Word(uint64(t.Dim()))
			kind, id := busID(s.enqueueBus(t))
			eh.Word(kind)
			eh.Word(id)
			sub := h
			h = fphash.New()
			hashOp(t.Op)
			eh.Word(h.Sum())
			h = sub
		case bus.GrantTag:
			eh.Word(0x11)
			kind, id := busID(t.B)
			eh.Word(kind)
			eh.Word(id)
		case bus.DeliverTag:
			eh.Word(0x12)
			kind, id := busID(t.B)
			eh.Word(kind)
			eh.Word(id)
			sub := h
			h = fphash.New()
			hashOp(t.Pkt().(*Op))
			eh.Word(h.Sum())
			h = sub
		default:
			if extraTag != nil {
				if fp, ok := extraTag(tag); ok {
					eh.Word(0x13)
					eh.Word(fp)
					break
				}
			}
			eh.Word(0x1f) // opaque: untagged or unrecognized event
		}
		evs = append(evs, eh.Sum())
	})
	for i := range evs {
		min := i
		for j := i + 1; j < len(evs); j++ {
			if evs[j] < evs[min] {
				min = j
			}
		}
		evs[i], evs[min] = evs[min], evs[i]
	}
	h.Word(0x07)
	for _, e := range evs {
		h.Word(e)
	}

	return h.Sum()
}

// --- event-tag classification for partial-order reduction ----------------

// TagKind classifies a kernel event tag for the model checker's
// independence reasoning (internal/mc's persistent-set reduction).
type TagKind uint8

const (
	// TagOther is any tag the coherence layer does not recognize; the
	// checker must treat it as dependent with everything.
	TagOther TagKind = iota
	// TagEnqueue is a device-latency enqueue (EnqueueTag).
	TagEnqueue
	// TagGrant is a deferred bus arbitration (bus.GrantTag).
	TagGrant
	// TagDeliver is a bus delivery (bus.DeliverTag).
	TagDeliver
)

// TagInfo describes one kernel event tag to the model checker: its
// class, the identity of the bus it acts on, and the issuing agent
// (enqueues only).
type TagInfo struct {
	Kind TagKind
	// Bus identifies the bus machine-stably: row r is r, column c is
	// N+c; -1 when the tag names no bus this system owns.
	Bus int
	// Issuer is the enqueueing agent (Row -1 for a memory module);
	// meaningful only for TagEnqueue.
	Issuer topology.Coord
}

// BusIndex returns the machine-stable bus identity used by TagInfo (rows
// 0..N-1, then columns N..2N-1), or -1.
func (s *System) BusIndex(b *bus.Bus) int {
	for r := 0; r < s.cfg.N; r++ {
		if s.rows[r] == b {
			return r
		}
	}
	for c := 0; c < s.cfg.N; c++ {
		if s.cols[c] == b {
			return s.cfg.N + c
		}
	}
	return -1
}

// TagInfo classifies tag for the model checker; ok is false for tags the
// coherence layer does not recognize (the caller's own driver events).
func (s *System) TagInfo(tag any) (info TagInfo, ok bool) {
	switch t := tag.(type) {
	case EnqueueTag:
		return TagInfo{Kind: TagEnqueue, Bus: s.BusIndex(s.enqueueBus(t)), Issuer: t.Issuer()}, true
	case bus.GrantTag:
		return TagInfo{Kind: TagGrant, Bus: s.BusIndex(t.B)}, true
	case bus.DeliverTag:
		return TagInfo{Kind: TagDeliver, Bus: s.BusIndex(t.B)}, true
	}
	return TagInfo{Bus: -1}, false
}
