package singlebus

import (
	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/fphash"
	"multicube/internal/memory"
)

// FPCache is the incremental companion of Machine.Fingerprint, mirroring
// internal/coherence's FPCache on the baseline machine. Per-processor
// cache/pending hashes and the memory hash are cached behind generation
// counters; the bus section and the pending-event multiset are rebuilt
// every choice point because queued and in-flight ops mutate
// fingerprint-visible fields (inhibit/confirmed/canceled) in place. The
// hash values differ from Machine.Fingerprint but induce the same
// equivalence partition (see internal/coherence/fpincr.go).

type sbEvRec struct {
	kind evKind // reuses the coherence-style discriminants locally
	op   *op
	row  int
	rest uint64
}

type evKind uint8

const (
	evGrant evKind = iota
	evDeliver
	evExtra
	evOpaque
)

// ExtraTagFunc describes a driver-owned kernel event tag: row is the
// issuing processor (permuted during the combine) and rest hashes the
// processor-independent remainder.
type ExtraTagFunc func(tag any) (row int, rest uint64, ok bool)

// FPCache incrementally fingerprints one Machine. Not safe for
// concurrent use; each explorer worker owns one, kept across its runs.
type FPCache struct {
	m *Machine
	n int

	procH   []uint64
	procGen []uint64
	memH    uint64
	memGen  uint64

	busy     bool
	inflight *op
	perSrc   [][]*op
	nonEmpty int

	evs []sbEvRec
	evH []uint64

	recomputes uint64
	reused     uint64
}

// NewFPCache returns a cache bound to m with every component dirty.
func NewFPCache(m *Machine) *FPCache {
	f := &FPCache{}
	f.Reset(m)
	return f
}

// Reset rebinds the cache to m (the next run's machine) and marks every
// component dirty.
func (f *FPCache) Reset(m *Machine) {
	n := len(m.procs)
	f.m = m
	f.recomputes, f.reused = 0, 0
	if f.n != n {
		f.n = n
		f.procH = make([]uint64, n)
		f.procGen = make([]uint64, n)
	}
	const dirty = ^uint64(0)
	for i := 0; i < n; i++ {
		f.procGen[i] = dirty
	}
	f.memGen = dirty
	f.evs = f.evs[:0]
}

// Stats reports how many component hashes were rebuilt vs served from
// cache since the last Reset.
func (f *FPCache) Stats() (recomputes, reused uint64) { return f.recomputes, f.reused }

// BeginPoint refreshes dirty components and snapshots the bus and the
// pending event set; call once per choice point, before FP.
func (f *FPCache) BeginPoint(extra ExtraTagFunc) {
	m := f.m
	for i, p := range m.procs {
		if p.gen != f.procGen[i] {
			f.procH[i] = procHash(p)
			f.procGen[i] = p.gen
			f.recomputes++
		} else {
			f.reused++
		}
	}
	if m.mem.gen != f.memGen {
		f.memH = sbMemHash(m.mem)
		f.memGen = m.mem.gen
		f.recomputes++
	} else {
		f.reused++
	}

	f.busy = m.bus.Busy()
	f.inflight = nil
	if p := m.bus.Inflight(); p != nil {
		f.inflight = p.(*op)
	}
	if len(f.perSrc) < m.bus.Agents() {
		f.perSrc = make([][]*op, m.bus.Agents())
	}
	for i := range f.perSrc {
		f.perSrc[i] = f.perSrc[i][:0]
	}
	f.nonEmpty = 0
	m.bus.ForEachQueued(func(src int, pkt bus.Packet) {
		if len(f.perSrc[src]) == 0 {
			f.nonEmpty++
		}
		f.perSrc[src] = append(f.perSrc[src], pkt.(*op))
	})

	f.evs = f.evs[:0]
	m.k.ForEachPendingTag(func(tag any) {
		var e sbEvRec
		switch t := tag.(type) {
		case bus.GrantTag:
			e.kind = evGrant
		case bus.DeliverTag:
			e.kind = evDeliver
			e.op = t.Pkt().(*op)
		default:
			e.kind = evOpaque
			if extra != nil {
				if row, rest, ok := extra(tag); ok {
					e.kind = evExtra
					e.row, e.rest = row, rest
				}
			}
		}
		f.evs = append(f.evs, e)
	})
}

// FP combines the cached and per-point state under the processor
// relabeling perm (inv its inverse, both caller-owned).
func (f *FPCache) FP(perm, inv []int) uint64 {
	n := f.n
	h := fphash.New()
	for cp := 0; cp < n; cp++ {
		h.Word(f.procH[inv[cp]])
	}
	h.Word(f.memH)

	h.Bit(f.busy)
	h.Bit(f.inflight != nil)
	if f.inflight != nil {
		h.Word(f.inflight.fp(perm))
	}
	h.Word(uint64(f.nonEmpty))
	emit := func(canonSrc int, ops []*op) {
		if len(ops) == 0 {
			return
		}
		h.Word(uint64(canonSrc))
		h.Word(uint64(len(ops)))
		for _, o := range ops {
			h.Word(o.fp(perm))
		}
	}
	// Processor sources in canonical order; the memory module attaches
	// last and maps to itself.
	for cp := 0; cp < n; cp++ {
		if src := inv[cp]; src < len(f.perSrc) {
			emit(cp, f.perSrc[src])
		}
	}
	for src := n; src < len(f.perSrc); src++ {
		emit(src, f.perSrc[src])
	}

	if cap(f.evH) < len(f.evs) {
		f.evH = make([]uint64, 0, len(f.evs)*2)
	}
	evH := f.evH[:0]
	for i := range f.evs {
		e := &f.evs[i]
		eh := fphash.New()
		switch e.kind {
		case evGrant:
			eh.Word(0x11)
		case evDeliver:
			eh.Word(0x12)
			eh.Word(e.op.fp(perm))
		case evExtra:
			eh.Word(0x13)
			eh.Word(uint64(perm[e.row]))
			eh.Word(e.rest)
		default:
			eh.Word(0x1f)
		}
		v := eh.Sum()
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

// procHash hashes one processor's cache contents and pending request —
// the same fields Machine.Fingerprint walks, none of which name a
// processor index.
func procHash(p *Processor) uint64 {
	h := fphash.New()
	h.Word(0x01)
	sub := fphash.New()
	count := 0
	p.cache.ForEach(func(e *cache.Entry) {
		count++
		sub.Word(uint64(e.Line))
		sub.Word(uint64(e.State))
		for _, w := range e.Data {
			sub.Word(w)
		}
	})
	h.Word(uint64(count))
	h.Word(sub.Sum())
	h.Word(0x02)
	h.Bit(p.pend != nil)
	if r := p.pend; r != nil {
		h.Word(uint64(r.line))
		h.Bit(r.write)
		h.Word(uint64(r.offset))
		h.Word(r.value)
	}
	return h.Sum()
}

func sbMemHash(mm *memModule) uint64 {
	h := fphash.New()
	h.Word(0x03)
	sub := fphash.New()
	count := 0
	mm.store.ForEach(func(line memory.Line, valid bool, data []uint64) {
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
