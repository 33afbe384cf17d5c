package coherence

import (
	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/fphash"
	"multicube/internal/memory"
	"multicube/internal/mlt"
)

// This file is the incremental companion of snapshot.go: FPCache computes
// the same canonical-equivalence fingerprint as System.Fingerprint but in
// O(changed components + n² combine per relabeling tried) per choice
// point instead of O(n! × total machine state) — and Signatures lets the
// caller try one relabeling, not n!, wherever rows and columns differ.
//
// The machine is hashed as independent components — one hash per node
// (L2 + MLT + pending transaction), one per memory module, one snapshot
// per bus — each cached under the component's rewind label
// (System.current): its mutation generation counter (Node.gen, Memory.gen,
// Bus.Gen), which the protocol entry points bump, qualified by an epoch no
// Load reuses. A label never names two contents, so the cache is kept
// across Save and Load untouched, and a hash is served again wherever a
// Load brings its label back. A choice point calls BeginPoint once to
// refresh only the components whose label moved, then FPRC once per
// relabeling it has to try, to combine the cached hashes in permuted order.
//
// Component hashes are row-independent by construction: nothing inside a
// node, memory module, or row-bus queue names a row index. The
// row-coupled parts — operation Origin/Target rows, the snarf
// eligibility matrix, column-bus source identities, event issuer rows —
// are factored out of the cached hashes and folded in per permutation
// during the combine.
//
// The hash VALUES differ from System.Fingerprint (component hashes
// combined per relabeling instead of one walk), but the induced
// equivalence partition is identical: both encodings are injective on
// exactly the same set of protocol-visible fields, and the explorer
// depends only on fingerprint equality. mc's cross-check mode
// (Options.CheckFP) and the equivalence tests in this package and in
// internal/mc verify both properties.

// evKind discriminates the pending-event records BeginPoint snapshots.
type evKind uint8

const (
	evEnqueue evKind = iota
	evGrant
	evDeliver
	evExtra
	evOpaque
)

// evRec is one pending kernel event with its row-permutation-dependent
// parts (issuer row, op, bus identity) kept symbolic.
type evRec struct {
	kind     evKind
	row, col int
	dim      uint8
	busKind  uint64
	busIdx   int
	op       *Op
	rest     uint64
}

// busQ is a snapshot of one bus's fingerprint-visible state, retaken
// when the bus's label moves. Its op pointers stay valid across rewinds —
// a saved machine recycles no operation (DESIGN.md §5.10) — and their
// hashed fields are immutable.
type busQ struct {
	busy     bool
	inflight *Op
	bySrc    [][]*Op // queued ops grouped by physical attach index
	nonEmpty int
}

// ExtraTagFunc lets the model-check driver describe its own kernel event
// tags: row and col are the issuer's physical coordinates (permuted
// during the combine) and rest hashes the placement-independent
// remainder.
type ExtraTagFunc func(tag any) (row, col int, rest uint64, ok bool)

// FPCache incrementally fingerprints one System. It is not safe for
// concurrent use; the explorer keeps one across its runs and rewinds.
type FPCache struct {
	sys   *System
	n     int
	snarf bool

	// lab is the label each component's hash or snapshot below was taken
	// under, in System.labels' order; the zero label, none yet.
	lab   []label
	nodeH [][]uint64
	memH  []uint64
	rowQ  []busQ
	colQ  []busQ

	evs   []evRec
	evH   []uint64
	lines [][]mlt.Line // each column's table, read once per point by nodeHash
	read  uint64       // the columns of lines read at this point, bit c for column c

	recomputes uint64 // component hashes rebuilt because their label moved
	reused     uint64 // component hashes served from cache
}

// NewFPCache returns a cache bound to s with no component hashed.
func NewFPCache(s *System) *FPCache {
	n := s.cfg.N
	f := &FPCache{sys: s, n: n, snarf: s.cfg.Snarf, lab: make([]label, len(s.labels)),
		nodeH: make([][]uint64, n), memH: make([]uint64, n), lines: make([][]mlt.Line, n),
		rowQ: make([]busQ, n), colQ: make([]busQ, n)}
	for r := range f.nodeH {
		f.nodeH[r] = make([]uint64, n)
	}
	return f
}

// Stats reports how many component hashes were rebuilt vs served from
// cache since the cache was built or ResetStats last called.
func (f *FPCache) Stats() (recomputes, reused uint64) { return f.recomputes, f.reused }

// ResetStats restarts the Stats counters; the hashes stay.
func (f *FPCache) ResetStats() { f.recomputes, f.reused = 0, 0 }

// BeginPoint refreshes every component whose label moved and snapshots
// the pending event set; call it once per choice point, before FP. extra
// describes driver-owned event tags (may be nil).
func (f *FPCache) BeginPoint(extra ExtraTagFunc) {
	s := f.sys
	n := f.n
	f.read = 0
	for r, row := range s.nodes {
		for c, nd := range row {
			if f.stale((3+r)*n+c, nd.gen) {
				f.nodeH[r][c] = f.nodeHash(nd)
			}
		}
	}
	for c, m := range s.mems {
		if f.stale(2*n+c, m.gen) {
			f.memH[c] = memHash(m)
		}
	}
	for i := 0; i < n; i++ {
		if f.stale(i, s.rows[i].Gen()) {
			f.snapBus(&f.rowQ[i], s.rows[i])
		}
		if f.stale(n+i, s.cols[i].Gen()) {
			f.snapBus(&f.colQ[i], s.cols[i])
		}
	}
	f.snapshotEvents(extra)
}

// stale reports whether component i, now at generation gen, stands under
// another label than its cached hash was taken under, and takes the
// current one; either way it counts the answer.
func (f *FPCache) stale(i int, gen uint64) bool {
	if l := f.sys.current(i, gen); l != f.lab[i] {
		f.lab[i] = l
		f.recomputes++
		return true
	}
	f.reused++
	return false
}

func (f *FPCache) snapBus(q *busQ, b *bus.Bus) {
	q.busy = b.Busy()
	q.inflight = nil
	if p := b.Inflight(); p != nil {
		q.inflight = p.(*Op)
	}
	if len(q.bySrc) < b.Agents() {
		q.bySrc = make([][]*Op, b.Agents())
	}
	for i := range q.bySrc {
		q.bySrc[i] = q.bySrc[i][:0]
	}
	q.nonEmpty = 0
	b.ForEachQueued(func(src int, pkt bus.Packet) {
		if len(q.bySrc[src]) == 0 {
			q.nonEmpty++
		}
		q.bySrc[src] = append(q.bySrc[src], pkt.(*Op))
	})
}

func (f *FPCache) snapshotEvents(extra ExtraTagFunc) {
	f.evs = f.evs[:0]
	f.sys.k.ForEachPendingTag(func(tag any) {
		var e evRec
		switch t := tag.(type) {
		case EnqueueTag:
			e.kind = evEnqueue
			e.row, e.col = t.Issuer().Row, t.Issuer().Col
			e.dim = uint8(t.Dim())
			e.busKind, e.busIdx = f.busRef(f.sys.enqueueBus(t))
			e.op = t.Op
		case bus.GrantTag:
			e.kind = evGrant
			e.busKind, e.busIdx = f.busRef(t.B)
		case bus.DeliverTag:
			e.kind = evDeliver
			e.busKind, e.busIdx = f.busRef(t.B)
			e.op = t.Pkt().(*Op)
		default:
			e.kind = evOpaque
			if extra != nil {
				if row, col, rest, ok := extra(tag); ok {
					e.kind = evExtra
					e.row, e.col, e.rest = row, col, rest
				}
			}
		}
		f.evs = append(f.evs, e)
	})
}

// busRef resolves a bus to (kind, physical index) mirroring
// Fingerprint's busID: rows are kind 0 (index permuted at combine time),
// columns kind 1, anything else kind 2.
func (f *FPCache) busRef(b *bus.Bus) (uint64, int) {
	switch idx := f.sys.BusIndex(b); {
	case idx < 0:
		return 2, 0
	case idx < f.n:
		return 0, idx
	default:
		return 1, idx - f.n
	}
}

// sigWord hashes one tagged pair into a signature term; a signature is a
// sum of terms, so the order they are found in does not matter.
func sigWord(tag, a, b uint64) uint64 {
	h := fphash.New()
	h.Word(tag)
	h.Word(a)
	h.Word(b)
	return h.Sum()
}

// Signatures writes one relabeling-invariant hash per row into rowSig and
// per free column into colSig (both len n) from what BeginPoint cached at
// this choice point. fixed[c] marks the columns no admissible relabeling
// moves (a home column in use): their index may be hashed as it is; every
// row, and every other column, may enter only as a member of a multiset.
//
// Invariance is the whole contract: relabel the machine by an admissible
// (perm, cperm) and the signature row r had turns up at perm[r], free
// column c's at cperm[c]. A caller may therefore hand FPRC only the
// relabelings that leave the signatures in order — the relabeled machine
// offers the same candidates composed with the relabeling's inverse,
// hence the same values. What a signature leaves out costs ties, never
// soundness: summed in are the node hashes of the row (keyed by a fixed
// column) or column, the memory module and the buses (busSig), all
// placement-free and already cached; pending events are left out, having
// split no tie the rest did not on any preset measured (EXPERIMENTS.md
// "PR 20").
func (f *FPCache) Signatures(fixed []bool, rowSig, colSig []uint64) {
	n := f.n
	colKey := func(c int) uint64 {
		if c < n && !fixed[c] {
			return ^uint64(0) // free: which one must not show
		}
		return uint64(c)
	}
	for r := 0; r < n; r++ {
		rowSig[r] = busSig(&f.rowQ[r], colKey)
		for c := 0; c < n; c++ {
			rowSig[r] += sigWord(0x40, f.nodeH[r][c], colKey(c))
		}
	}
	for c := 0; c < n; c++ {
		if fixed[c] {
			colSig[c] = 0 // never sorted by
			continue
		}
		// A column bus's sources are rows, all alike, then the memory module.
		colSig[c] = sigWord(0x41, f.memH[c], 0) + busSig(&f.colQ[c], func(src int) uint64 { return uint64(src / n) })
		for r := 0; r < n; r++ {
			colSig[c] += sigWord(0x42, f.nodeH[r][c], 0)
		}
	}
}

// busSig summarizes one bus for Signatures: busy bit, in-flight operation,
// and every queued operation by the key srcKey gives its source's attach
// index and its place in that source's queue.
func busSig(q *busQ, srcKey func(src int) uint64) uint64 {
	var sig uint64
	if q.busy {
		sig = 0x50
	}
	if q.inflight != nil {
		sig += sigWord(0x51, opBase(q.inflight), 0)
	}
	if q.nonEmpty > 0 {
		for src, ops := range q.bySrc {
			for i, op := range ops {
				sig += sigWord(0x52+srcKey(src)<<8, uint64(i), opBase(op))
			}
		}
	}
	return sig
}

// FPRC combines the cached component hashes under the row relabeling
// perm AND the column relabeling cperm (inv/cinv their inverses, all
// caller-owned and len n). Column relabelings are sound only when cperm
// fixes the home column of every line the run can touch — the caller
// (internal/mc's shared permutation set) enforces that; this function
// just applies whatever relabeling it is handed. The encoding is
// prefix-decodable given the machine configuration — fixed-position
// component words, count-prefixed variable sections — so it is
// injective on the same abstract content as System.Fingerprint.
func (f *FPCache) FPRC(perm, inv, cperm, cinv []int) uint64 {
	n := f.n
	h := fphash.New()
	for cr := 0; cr < n; cr++ {
		r := inv[cr]
		for cc := 0; cc < n; cc++ {
			h.Word(f.nodeH[r][cinv[cc]])
		}
	}
	for cc := 0; cc < n; cc++ {
		h.Word(f.memH[cinv[cc]])
	}
	for cr := 0; cr < n; cr++ {
		f.busFP(&h, &f.rowQ[inv[cr]], false, perm, inv, cperm, cinv)
	}
	for cc := 0; cc < n; cc++ {
		f.busFP(&h, &f.colQ[cinv[cc]], true, perm, inv, cperm, cinv)
	}
	if cap(f.evH) < len(f.evs) {
		f.evH = make([]uint64, 0, len(f.evs)*2)
	}
	evH := f.evH[:0]
	for i := range f.evs {
		v := f.evHash(&f.evs[i], perm, inv, cperm, cinv)
		// Insertion sort on the way in: the event multiset must hash
		// order-insensitively (heap order varies across replays of the
		// same abstract state).
		j := len(evH)
		evH = append(evH, v)
		for j > 0 && evH[j-1] > v {
			evH[j] = evH[j-1]
			j--
		}
		evH[j] = v
	}
	f.evH = evH
	h.Word(uint64(len(evH)))
	for _, v := range evH {
		h.Word(v)
	}
	return h.Sum()
}

func (f *FPCache) busFP(h *fphash.Hash, q *busQ, colBus bool, perm, inv, cperm, cinv []int) {
	h.Bit(q.busy)
	h.Bit(q.inflight != nil)
	if q.inflight != nil {
		h.Word(f.opPermFP(q.inflight, perm, inv, cperm, cinv))
	}
	h.Word(uint64(q.nonEmpty))
	emit := func(canonSrc int, ops []*Op) {
		if len(ops) == 0 {
			return
		}
		h.Word(uint64(int64(canonSrc)))
		h.Word(uint64(len(ops)))
		for _, op := range ops {
			h.Word(f.opPermFP(op, perm, inv, cperm, cinv))
		}
	}
	if !colBus {
		// Row-bus sources are column indices, visited in canonical
		// column order.
		for cc := 0; cc < f.n; cc++ {
			if src := cinv[cc]; src < len(q.bySrc) {
				emit(cc, q.bySrc[src])
			}
		}
		return
	}
	// Column-bus sources are row indices (attach index r holds node
	// (r, c)), visited in canonical row order; the memory module attaches
	// last, at index n, and maps to itself.
	for cr := 0; cr < f.n; cr++ {
		if src := inv[cr]; src < len(q.bySrc) {
			emit(cr, q.bySrc[src])
		}
	}
	if len(q.bySrc) > f.n {
		emit(f.n, q.bySrc[f.n])
	}
}

func (f *FPCache) evHash(e *evRec, perm, inv, cperm, cinv []int) uint64 {
	h := fphash.New()
	switch e.kind {
	case evEnqueue:
		h.Word(0x10)
		h.Word(permRowWord(perm, e.row))
		h.Word(permRowWord(cperm, e.col))
		h.Word(uint64(e.dim))
		h.Word(e.busKind)
		h.Word(f.busCanon(e.busKind, e.busIdx, perm, cperm))
		h.Word(f.opPermFP(e.op, perm, inv, cperm, cinv))
	case evGrant:
		h.Word(0x11)
		h.Word(e.busKind)
		h.Word(f.busCanon(e.busKind, e.busIdx, perm, cperm))
	case evDeliver:
		h.Word(0x12)
		h.Word(e.busKind)
		h.Word(f.busCanon(e.busKind, e.busIdx, perm, cperm))
		h.Word(f.opPermFP(e.op, perm, inv, cperm, cinv))
	case evExtra:
		h.Word(0x13)
		h.Word(permRowWord(perm, e.row))
		h.Word(permRowWord(cperm, e.col))
		h.Word(e.rest)
	default:
		h.Word(0x1f)
	}
	return h.Sum()
}

func (f *FPCache) busCanon(kind uint64, idx int, perm, cperm []int) uint64 {
	switch kind {
	case 0:
		return uint64(perm[idx])
	case 1:
		return uint64(cperm[idx])
	}
	return 0
}

// permRowWord canonicalizes one coordinate index under perm; negative
// indices (a memory module's row, an absent coordinate) pass through.
// It serves rows and columns alike — both are plain index relabelings.
func permRowWord(perm []int, r int) uint64 {
	if r < 0 {
		return uint64(int64(r))
	}
	return uint64(perm[r])
}

// opPermFP hashes one bus operation under (perm, cperm): the memoized
// placement-independent base plus the permuted Origin/Target coordinates
// and, when snarfing is live, the permuted snarf eligibility matrix.
func (f *FPCache) opPermFP(op *Op, perm, inv, cperm, cinv []int) uint64 {
	h := fphash.New()
	h.Word(opBase(op))
	h.Word(permRowWord(perm, op.Origin.Row))
	h.Word(permRowWord(cperm, op.Origin.Col))
	if op.Flags&XFER != 0 {
		h.Word(permRowWord(perm, op.Target.Row))
		h.Word(permRowWord(cperm, op.Target.Col))
	}
	if f.snarf && op.Txn == READ && op.Data != nil {
		h.Word(f.snarfWord(op, inv, cinv))
	}
	return h.Sum()
}

// opBase hashes the placement-independent fields of an op. Every hashed
// field is immutable once the op is fingerprint-visible (snapshot.go
// hashes the same set), so the result is memoized on the op.
func opBase(op *Op) uint64 {
	if op.fpBaseOK {
		return op.fpBase
	}
	h := fphash.New()
	h.Word(uint64(op.Txn))
	h.Word(uint64(op.Flags))
	h.Word(uint64(op.Line))
	h.Bit(op.Data != nil)
	h.Word(uint64(len(op.Data)))
	for _, w := range op.Data {
		h.Word(w)
	}
	op.fpBase, op.fpBaseOK = h.Sum(), true
	return op.fpBase
}

// snarfWord hashes the born-vs-purgedAt eligibility relation, one bit
// per node in canonical node order.
func (f *FPCache) snarfWord(op *Op, inv, cinv []int) uint64 {
	h := fphash.New()
	for _, r := range inv {
		for _, c := range cinv {
			t, ok := f.sys.nodes[r][c].purgedAt.Get(uint64(op.Line))
			h.Bit(ok && op.born <= t)
		}
	}
	return h.Sum()
}

// nodeHash hashes one node's L2, its column's MLT (applyTable bumps the
// node when it moves), pending transaction, and write-back continuation —
// the same fields snapshot.go walks, none of which name a row index.
func (f *FPCache) nodeHash(nd *Node) uint64 {
	h := fphash.New()
	h.Word(0x01)
	sub := fphash.New()
	count := 0
	nd.l2.ForEach(func(e *cache.Entry) {
		count++
		sub.Word(uint64(e.Line))
		sub.Word(uint64(e.State))
		sub.Bit(e.Pinned)
		for _, w := range e.Data {
			sub.Word(w)
		}
	})
	h.Word(uint64(count))
	h.Word(sub.Sum())
	h.Word(0x02)
	c := nd.id.Col
	if f.read&(1<<c) == 0 {
		f.lines[c], f.read = f.sys.mlt.AppendLines(c, f.lines[c][:0]), f.read|1<<c
	}
	h.Word(uint64(len(f.lines[c])))
	for _, l := range f.lines[c] {
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
	return h.Sum()
}

// memHash hashes one memory module's contents and valid bits.
func memHash(m *Memory) uint64 {
	h := fphash.New()
	h.Word(0x04)
	sub := fphash.New()
	count := 0
	m.store.ForEach(func(line memory.Line, valid bool, data []uint64) {
		count++
		sub.Word(uint64(line))
		sub.Bit(valid)
		for _, w := range data {
			sub.Word(w)
		}
	})
	h.Word(uint64(count))
	h.Word(sub.Sum())
	return h.Sum()
}
