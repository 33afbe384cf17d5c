package core

import (
	"fmt"

	"multicube/internal/cache"
	"multicube/internal/coherence"
	"multicube/internal/topology"
)

// Processor is one node's processor-side interface: the word-level memory
// operations a program issues, filtered through the processor cache and
// satisfied by the snooping cache and the coherence protocol.
//
// A processor has at most one memory operation outstanding at a time
// (the paper's non-overlapping request assumption); the asynchronous
// calls deliver their completions through callbacks that may fire
// synchronously on cache hits.
type Processor struct {
	m    *Machine
	id   int
	node *coherence.Node
	l1   *cache.ProcessorCache

	// ref is the outstanding load or store. Keeping it here lets every
	// reference complete through onDone, bound once when the machine is
	// built, so issuing one allocates nothing.
	ref    reference
	onDone func(coherence.Result)

	loads, stores   uint64
	l1Hits, l1Fills uint64
}

// reference is a load or store in progress.
type reference struct {
	off   int // word within the line
	store bool
	value uint64       // what a store writes
	done  func(uint64) // nil when no reference is outstanding
}

// ID returns the processor's linearized id.
func (p *Processor) ID() int { return p.id }

// Coord returns the processor's grid coordinate.
func (p *Processor) Coord() topology.Coord { return p.node.ID() }

// Node exposes the underlying snooping-cache controller.
func (p *Processor) Node() *coherence.Node { return p.node }

// L1 returns the processor cache, or nil when disabled.
func (p *Processor) L1() *cache.ProcessorCache { return p.l1 }

// ProcessorStats reports per-processor reference counts.
type ProcessorStats struct {
	Loads   uint64
	Stores  uint64
	L1Hits  uint64
	L1Fills uint64
}

// Stats returns a snapshot of the counters.
func (p *Processor) Stats() ProcessorStats {
	return ProcessorStats{Loads: p.loads, Stores: p.stores, L1Hits: p.l1Hits, L1Fills: p.l1Fills}
}

// LoadAsync reads the word at addr, invoking done with the value when the
// reference completes. A processor-cache hit completes synchronously.
func (p *Processor) LoadAsync(addr Addr, done func(uint64)) {
	p.loads++
	line, off := p.m.LineOf(addr)
	if p.l1 != nil {
		if v, ok := p.l1.Read(line, off); ok {
			p.l1Hits++
			done(v)
			return
		}
	}
	p.begin(reference{off: off, done: done})
	p.node.Read(line, p.onDone)
}

// StoreAsync writes value to addr, invoking done when the line is held
// modified and the word updated. The processor cache is written through.
func (p *Processor) StoreAsync(addr Addr, value uint64, done func()) {
	p.StoreAsyncObs(addr, value, func(uint64) { done() })
}

// StoreAsyncObs is StoreAsync reporting the word's previous value to
// done. The old value is read with the line already held modified, so it
// is the coherent predecessor of this store in the word's write order —
// which is exactly what a memory-model history recorder needs to chain
// writes without searching.
func (p *Processor) StoreAsyncObs(addr Addr, value uint64, done func(old uint64)) {
	p.stores++
	line, off := p.m.LineOf(addr)
	p.begin(reference{off: off, store: true, value: value, done: done})
	p.node.Write(line, p.onDone)
}

// begin records the outstanding reference.
func (p *Processor) begin(ref reference) {
	if p.ref.done != nil {
		panic(fmt.Sprintf("core: processor %d issued a reference with one outstanding", p.id))
	}
	p.ref = ref
}

// complete finishes the outstanding reference, whose line is now held in
// r.Entry (readable, or modified for a store). The reference is
// forgotten before done runs: done may issue the next one at once.
func (p *Processor) complete(r coherence.Result) {
	ref, e := p.ref, r.Entry
	p.ref = reference{}
	if e == nil {
		panic("core: reference completed with the line absent")
	}
	v := e.Data[ref.off]
	if ref.store {
		e.Data[ref.off] = ref.value
		if p.l1 != nil {
			p.l1.WriteThrough(e.Line, ref.off, ref.value)
		}
	} else {
		p.fillL1(e.Line, e.Data)
	}
	ref.done(v)
}

// AllocateAsync issues the ALLOCATE hint for the line containing addr:
// the whole line will be overwritten, so no data needs to move. On
// completion the line is resident modified and zero-filled.
func (p *Processor) AllocateAsync(addr Addr, done func()) {
	line, _ := p.m.LineOf(addr)
	if p.l1 != nil {
		p.l1.Invalidate(line)
	}
	p.node.Allocate(line, func(coherence.Result) { done() })
}

// TestAndSetAsync performs the remote test-and-set transaction on the
// lock word of the line containing addr. done receives true when the lock
// was acquired.
func (p *Processor) TestAndSetAsync(addr Addr, done func(bool)) {
	line, _ := p.m.LineOf(addr)
	if p.l1 != nil {
		// Lock lines live in the snooping cache; keep the L1 out of the
		// way of their mutating protocol operations.
		p.l1.Invalidate(line)
	}
	p.node.TestAndSet(line, func(r coherence.Result) { done(r.Acquired) })
}

// LockResult reports a SYNC acquire outcome.
type LockResult struct {
	// Acquired: the lock line arrived and this processor holds the lock.
	Acquired bool
	// MustSpin: the queue path degenerated; spin with TestAndSetAsync.
	MustSpin bool
}

// SyncAcquireAsync joins the distributed queue for the lock line
// containing addr (Section 4).
func (p *Processor) SyncAcquireAsync(addr Addr, done func(LockResult)) {
	line, _ := p.m.LineOf(addr)
	if p.l1 != nil {
		p.l1.Invalidate(line)
	}
	p.node.SyncAcquire(line, func(r coherence.Result) {
		done(LockResult{Acquired: r.Acquired, MustSpin: r.MustSpin})
	})
}

// SyncRelease releases a lock acquired through the SYNC queue, handing
// the line directly to the next waiter if one is queued. It returns false
// when the line is no longer held modified; the caller must then clear
// the lock word with an ordinary store.
func (p *Processor) SyncRelease(addr Addr) bool {
	line, _ := p.m.LineOf(addr)
	return p.node.SyncRelease(line)
}

// WriteBackAsync makes main memory current for the line containing addr.
func (p *Processor) WriteBackAsync(addr Addr, done func()) {
	line, _ := p.m.LineOf(addr)
	p.node.WriteBack(line, func(coherence.Result) { done() })
}

func (p *Processor) fillL1(line cache.Line, data []uint64) {
	if p.l1 == nil {
		return
	}
	p.l1Fills++
	p.l1.Fill(line, data)
}
