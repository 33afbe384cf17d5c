package core

import (
	"fmt"

	"multicube/internal/sim"
)

// Ctx is the execution context handed to a program running on one
// simulated processor: blocking memory operations whose latency is the
// machine's, plus the simulated clock. Programs are ordinary Go functions;
// the kernel interleaves them deterministically.
type Ctx struct {
	proc *sim.Proc
	p    *Processor
}

// Machine returns the machine this program runs on.
func (c *Ctx) Machine() *Machine { return c.p.m }

// Processor returns the processor this program runs on.
func (c *Ctx) Processor() *Processor { return c.p }

// ID returns the processor id.
func (c *Ctx) ID() int { return c.p.id }

// Now returns the current simulated time.
func (c *Ctx) Now() sim.Time { return c.proc.Now() }

// Sleep advances this program's simulated time by d, modeling local
// computation.
func (c *Ctx) Sleep(d sim.Time) { c.proc.Sleep(d) }

// Load reads the word at addr, blocking for the memory system's latency.
func (c *Ctx) Load(addr Addr) uint64 {
	var v uint64
	c.proc.Suspend(func(wake func()) {
		c.p.LoadAsync(addr, func(got uint64) { v = got; wake() })
	})
	return v
}

// Store writes value to addr, blocking until the line is held modified.
func (c *Ctx) Store(addr Addr, value uint64) {
	c.proc.Suspend(func(wake func()) {
		c.p.StoreAsync(addr, value, func() { wake() })
	})
}

// Allocate issues the ALLOCATE hint for the line containing addr and
// blocks until the line is held modified (zero-filled).
func (c *Ctx) Allocate(addr Addr) {
	c.proc.Suspend(func(wake func()) {
		c.p.AllocateAsync(addr, func() { wake() })
	})
}

// TestAndSet performs a test-and-set on the lock line containing addr,
// reporting whether the lock was acquired.
func (c *Ctx) TestAndSet(addr Addr) bool {
	var ok bool
	c.proc.Suspend(func(wake func()) {
		c.p.TestAndSetAsync(addr, func(got bool) { ok = got; wake() })
	})
	return ok
}

// SyncAcquire joins the distributed lock queue for addr's line.
func (c *Ctx) SyncAcquire(addr Addr) LockResult {
	var r LockResult
	c.proc.Suspend(func(wake func()) {
		c.p.SyncAcquireAsync(addr, func(got LockResult) { r = got; wake() })
	})
	return r
}

// SyncRelease releases a queue lock; see Processor.SyncRelease.
func (c *Ctx) SyncRelease(addr Addr) bool { return c.p.SyncRelease(addr) }

// WriteBack pushes the line containing addr back to main memory.
func (c *Ctx) WriteBack(addr Addr) {
	c.proc.Suspend(func(wake func()) {
		c.p.WriteBackAsync(addr, func() { wake() })
	})
}

// Spawn runs fn as a program on processor id. The program starts when the
// machine runs and may block only through its Ctx.
func (m *Machine) Spawn(id int, fn func(*Ctx)) {
	if id < 0 || id >= len(m.procs) {
		panic(fmt.Sprintf("core: spawn on unknown processor %d", id))
	}
	p := m.procs[id]
	m.k.Spawn(fmt.Sprintf("cpu%d", id), func(proc *sim.Proc) {
		fn(&Ctx{proc: proc, p: p})
	})
}

// SpawnAll runs fn on every processor, passing the processor id.
func (m *Machine) SpawnAll(fn func(*Ctx)) {
	for id := range m.procs {
		m.Spawn(id, fn)
	}
}
