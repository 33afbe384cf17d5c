package singlebus

import (
	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/fphash"
	"multicube/internal/memory"
	"multicube/internal/sim"
)

// This file computes canonical fingerprints of the baseline machine's
// complete protocol state for the model checker's visited-state table,
// mirroring internal/coherence/snapshot.go. Everything that can influence
// future protocol behavior is hashed; statistics and absolute times are
// excluded. It is the checker's only fingerprint of this machine — a full
// walk per call, with no cache beside it that a mutation of the machine
// would have to invalidate (the baseline's whole traffic is a few
// thousand states; DESIGN.md §5.8).
//
// Processor symmetry: on a single snooping bus every cache controller is
// interchangeable (attach order is an arbitrary labeling), so the
// fingerprint accepts a processor relabeling and the checker takes the
// minimum over all of them. The memory module is unique and maps to
// itself.

// opFP hashes one bus operation's protocol-visible fields under the
// given processor relabeling. Occupancy (a pure function of the kind)
// and the enqueue time are excluded; the probe-phase wires (inhibit,
// confirmed) are included because they persist on a granted operation
// until delivery.
func (o *op) fp(perm []int) uint64 {
	h := fphash.New()
	h.Word(uint64(o.kind))
	h.Word(uint64(perm[o.origin]))
	h.Word(uint64(o.line))
	h.Word(uint64(o.offset))
	h.Word(o.value)
	h.Bit(o.data != nil)
	for _, w := range o.data {
		h.Word(w)
	}
	h.Bit(o.inhibit)
	h.Bit(o.confirmed)
	h.Bit(o.canceled)
	if o.shared {
		// MESI sharers wire. Hashed only when asserted, so write-once
		// machines feed the word sequence they fed before MESI existed;
		// in write-once mode the wire is never driven.
		h.Word(1)
	}
	return h.Sum()
}

// Fingerprint hashes the complete protocol-visible machine state under
// the given processor relabeling: caches, pending processor requests,
// memory contents, the bus queue and in-flight operation, and pending
// kernel events. perm maps physical processor index to canonical index;
// nil means identity. extraTag, when non-nil, is consulted for kernel
// event tags this package does not recognize (the model-check driver's
// own events).
func (m *Machine) Fingerprint(perm []int, extraTag func(tag any) (uint64, bool)) uint64 {
	n := len(m.procs)
	if perm == nil {
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
	}
	inv := make([]int, n)
	for phys, canon := range perm {
		inv[canon] = phys
	}

	h := fphash.New()

	// Processors, in canonical order.
	for cp := 0; cp < n; cp++ {
		p := m.procs[inv[cp]]
		h.Word(0x01)
		p.cache.ForEach(func(e *cache.Entry) {
			h.Word(uint64(e.Line))
			h.Word(uint64(e.State))
			for _, w := range e.Data {
				h.Word(w)
			}
		})
		h.Word(0x02)
		h.Bit(p.pend != nil)
		if r := p.pend; r != nil {
			h.Word(uint64(r.line))
			h.Bit(r.write)
			h.Word(uint64(r.offset))
			h.Word(r.value)
		}
	}

	// Memory.
	h.Word(0x03)
	m.mem.store.ForEach(func(line memory.Line, valid bool, data []uint64) {
		h.Word(uint64(line))
		h.Bit(valid)
		for _, w := range data {
			h.Word(w)
		}
	})

	// The bus: in-flight operation plus per-source queued subsequences in
	// canonical source order (arbitration among sources is a choice the
	// explorer branches on; per-source FIFO order is hardware).
	permSrc := func(src int) int {
		if src < n {
			return perm[src]
		}
		return src // the memory module
	}
	h.Word(0x04)
	h.Bit(m.bus.Busy())
	if p := m.bus.Inflight(); p != nil {
		h.Word(p.(*op).fp(perm))
	}
	type group struct {
		src int
		ops []*op
	}
	var groups []group
	idx := make(map[int]int)
	m.bus.ForEachQueued(func(src int, pkt bus.Packet) {
		cs := permSrc(src)
		gi, ok := idx[cs]
		if !ok {
			gi = len(groups)
			idx[cs] = gi
			groups = append(groups, group{src: cs})
		}
		groups[gi].ops = append(groups[gi].ops, pkt.(*op))
	})
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
		h.Word(uint64(g.src))
		h.Word(uint64(len(g.ops)))
		for _, o := range g.ops {
			h.Word(o.fp(perm))
		}
	}

	// Pending kernel events, as a multiset.
	var evs []uint64
	m.k.ForEachPending(func(at sim.Time, tag any) {
		eh := fphash.New()
		switch t := tag.(type) {
		case bus.GrantTag:
			eh.Word(0x11)
		case bus.DeliverTag:
			eh.Word(0x12)
			eh.Word(t.Pkt().(*op).fp(perm))
		default:
			if extraTag != nil {
				if fp, ok := extraTag(tag); ok {
					eh.Word(0x13)
					eh.Word(fp)
					break
				}
			}
			eh.Word(0x1f)
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
	h.Word(0x05)
	for _, e := range evs {
		h.Word(e)
	}

	return h.Sum()
}
