package singlebus

import (
	"fmt"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/sim"
)

// The baseline models a circa-1988 non-split ("atomic") backplane bus:
// a miss holds the bus from address cycle through data return, so a whole
// transaction is one indivisible bus operation. The data source (memory,
// or a dirty cache asserting the inhibit line) resolves during the probe
// phase; every controller then applies its write-once state change during
// the snoop phase. This atomicity is what lets the single-bus protocol
// stay simple — and what the Multicube's grid must give up and re-earn
// with the modified line tables and the memory valid bit.

// Processor is one cache controller plus its processor-side interface.
type Processor struct {
	m      *Machine
	id     int
	cache  *cache.Cache
	busIdx int

	pend *pendReq

	// wbuf is the write-back buffer: dirty victims flushed to the bus
	// but not yet delivered. Like the hardware buffer it models, it is
	// snooped — a READ or READ-INV for a buffered line is supplied from
	// here (and cancels the queued flush) so the block's only copy is
	// never invisible between victimization and the write-back's bus
	// grant.
	wbuf []*op

	loads, stores, hits uint64
	invalidations       uint64
}

type pendReq struct {
	line    cache.Line
	write   bool
	offset  int
	value   uint64
	started sim.Time
	done    func(uint64)
}

// ID returns the processor index.
func (p *Processor) ID() int { return p.id }

// Cache exposes the cache for tests.
func (p *Processor) Cache() *cache.Cache { return p.cache }

// Stats reports reference counts.
func (p *Processor) Stats() (loads, stores, hits, invalidations uint64) {
	return p.loads, p.stores, p.hits, p.invalidations
}

// LoadAsync reads the word at addr; done receives the value.
func (p *Processor) LoadAsync(addr Addr, done func(uint64)) {
	p.loads++
	line := cache.Line(addr / Addr(p.m.cfg.BlockWords))
	off := int(addr % Addr(p.m.cfg.BlockWords))
	if e, ok := p.cache.Access(line); ok {
		p.hits++
		done(e.Data[off])
		return
	}
	p.begin(&pendReq{line: line, offset: off, done: done})
	p.miss(opRead)
}

// StoreAsync writes value to addr; done fires when the write is complete
// (including the write-once write-through bus operation when required)
// and receives the word value the store overwrote at commit time — the
// coherence-order predecessor a sequential-consistency witness needs.
func (p *Processor) StoreAsync(addr Addr, value uint64, done func(old uint64)) {
	p.stores++
	line := cache.Line(addr / Addr(p.m.cfg.BlockWords))
	off := int(addr % Addr(p.m.cfg.BlockWords))
	if e, ok := p.cache.Access(line); ok {
		switch e.State {
		case Reserved, Dirty:
			// Local write; memory diverges.
			p.hits++
			old := e.Data[off]
			e.Data[off] = value
			e.State = Dirty
			done(old)
			return
		case Valid:
			// First write: write through one word, invalidating other
			// copies; the line becomes Reserved.
			p.begin(&pendReq{line: line, write: true, offset: off, value: value, done: done})
			p.m.bus.Request(p.busIdx, p.m.wordOp(p.id, line, off, value))
			return
		}
	}
	// Write miss: read the block with intent to modify; the line arrives
	// Dirty with the new word applied.
	p.begin(&pendReq{line: line, write: true, offset: off, value: value, done: done})
	p.miss(opReadInv)
}

func (p *Processor) begin(r *pendReq) {
	if p.pend != nil {
		panic(fmt.Sprintf("singlebus: processor %d overlapping requests", p.id))
	}
	r.started = p.m.k.Now()
	p.pend = r
}

// miss moves a dirty victim into the write-back buffer if needed, then
// issues the atomic read transaction.
func (p *Processor) miss(kind opKind) {
	line := p.pend.line
	if v := p.cache.SelectVictim(line); v != nil && v.State == Dirty {
		wb := p.m.dataOp(opWriteBack, p.id, v.Line, v.Data)
		p.wbuf = append(p.wbuf, wb)
		p.m.bus.Request(p.busIdx, wb)
		p.cache.Invalidate(v.Line)
	}
	p.m.bus.Request(p.busIdx, p.m.readOp(kind, p.id, line))
}

// wbufFind returns the live buffered write-back for line, if any.
func (p *Processor) wbufFind(line cache.Line) *op {
	for _, wb := range p.wbuf {
		if wb.line == line {
			return wb
		}
	}
	return nil
}

func (p *Processor) wbufRemove(wb *op) {
	for i, o := range p.wbuf {
		if o == wb {
			p.wbuf = append(p.wbuf[:i], p.wbuf[i+1:]...)
			return
		}
	}
}

func (p *Processor) complete(value uint64) {
	r := p.pend
	p.pend = nil
	p.m.txnCount++
	p.m.txnLatency += p.m.k.Now() - r.started
	r.done(value)
}

// probe resolves the data source: a cache holding the line dirty asserts
// the inhibit line and supplies the block in place of memory. A
// write-through's originator confirms that its copy is still Valid at
// arbitration win; otherwise the operation is void.
func (p *Processor) probe(o *op) {
	switch o.kind {
	case opRead, opReadInv:
		if wb := p.wbufFind(o.line); wb != nil {
			// The block's only copy sits in our write-back buffer; the
			// buffer answers the probe like the dirty cache entry it
			// was. This also covers our own re-read of a line we just
			// victimized — memory is stale until the flush delivers.
			o.inhibit = true
			o.data = append([]uint64(nil), wb.data...)
		} else if o.origin != p.id {
			if e, ok := p.cache.Lookup(o.line); ok {
				if e.State == Dirty {
					o.inhibit = true
					o.data = append([]uint64(nil), e.Data...)
				}
				// MESI sharers wire: any valid copy elsewhere forces the
				// read-miss originator down to Shared. A write-back buffer
				// supply deliberately does not assert it — the victimized
				// copy is gone once the flush cancels, leaving the reader
				// the only holder.
				if p.m.mesi() {
					o.shared = true
				}
			}
		}
	case opWriteWord:
		if o.origin == p.id {
			if e, ok := p.cache.Lookup(o.line); ok && e.State == Valid {
				o.confirmed = true
			}
		}
	}
}

// snoop applies the write-once state transitions at the end of the
// transaction.
func (p *Processor) snoop(o *op) {
	e, have := p.cache.Lookup(o.line)
	if o.kind == opRead || o.kind == opReadInv {
		if wb := p.wbufFind(o.line); wb != nil {
			// The probe answered from our write-back buffer: memory is
			// updated by this very transaction (READ reflection) or the
			// requester takes the block dirty (READ-INV). Either way
			// the queued flush is stale the moment it would deliver.
			wb.canceled = true
			p.wbufRemove(wb)
		}
	}
	switch o.kind {
	case opWriteBack:
		if o.origin == p.id {
			p.wbufRemove(o) // delivered; no-op if it was canceled
		}
	case opRead:
		if o.origin == p.id {
			st := Valid
			if p.m.mesi() && !o.shared {
				// No other cache held the line: install Exclusive
				// (Reserved slot) so a later store stays off the bus.
				st = Reserved
			}
			p.fill(o, st)
			return
		}
		if have {
			switch e.State {
			case Dirty, Reserved:
				// Another processor read our exclusive line: fall back
				// to Valid; memory is updated by the same transaction.
				e.State = Valid
			}
		}
	case opReadInv:
		if o.origin == p.id {
			p.fill(o, Dirty)
			return
		}
		if have {
			p.cache.Invalidate(o.line)
			p.invalidations++
		}
	case opWriteWord:
		if o.origin == p.id {
			if o.confirmed {
				// Our write-through completed: apply it, claim Reserved —
				// or Modified under MESI, which has no written-exactly-once
				// state (the bus word doubles as the invalidation).
				old := e.Data[o.offset]
				e.Data[o.offset] = o.value
				st := Reserved
				if p.m.mesi() {
					st = Dirty
				}
				e.State = st
				if p.pend != nil && p.pend.line == o.line && p.pend.write {
					p.complete(old)
				}
				return
			}
			// Our copy was invalidated while we waited for the bus: the
			// write-through is void; retry as a write miss.
			p.miss(opReadInv)
		} else if o.confirmed && have {
			p.cache.Invalidate(o.line)
			p.invalidations++
		}
	}
}

// fill installs the transaction's data block at the originator and
// completes the processor request. Writes complete with the word value
// they overwrote; reads with the word value observed.
func (p *Processor) fill(o *op, state cache.State) {
	if p.pend == nil || p.pend.line != o.line {
		panic(fmt.Sprintf("singlebus: processor %d fill without matching request", p.id))
	}
	p.cache.Insert(o.line, state, o.data)
	e, _ := p.cache.Lookup(o.line)
	r := p.pend
	if r.write {
		old := e.Data[r.offset]
		e.Data[r.offset] = r.value
		p.complete(old)
		return
	}
	p.complete(e.Data[r.offset])
}

type procAgent struct{ p *Processor }

func (a procAgent) Probe(b *bus.Bus, pkt bus.Packet) { a.p.probe(pkt.(*op)) }
func (a procAgent) Snoop(b *bus.Bus, pkt bus.Packet) { a.p.snoop(pkt.(*op)) }

// Ctx runs programs on the baseline machine, mirroring core.Ctx.
type Ctx struct {
	proc *sim.Proc
	p    *Processor
}

// Spawn runs fn as a program on processor id.
func (m *Machine) Spawn(id int, fn func(*Ctx)) {
	p := m.procs[id]
	m.k.Spawn(fmt.Sprintf("cpu%d", id), func(proc *sim.Proc) {
		fn(&Ctx{proc: proc, p: p})
	})
}

// ID returns the processor id.
func (c *Ctx) ID() int { return c.p.id }

// Now returns simulated time.
func (c *Ctx) Now() sim.Time { return c.proc.Now() }

// Sleep models local computation.
func (c *Ctx) Sleep(d sim.Time) { c.proc.Sleep(d) }

// Load blocks for a read.
func (c *Ctx) Load(addr Addr) uint64 {
	var v uint64
	c.proc.Suspend(func(wake func()) {
		c.p.LoadAsync(addr, func(got uint64) { v = got; wake() })
	})
	return v
}

// Store blocks for a write.
func (c *Ctx) Store(addr Addr, value uint64) {
	c.proc.Suspend(func(wake func()) {
		c.p.StoreAsync(addr, value, func(uint64) { wake() })
	})
}
