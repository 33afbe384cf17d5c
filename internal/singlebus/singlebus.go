// Package singlebus implements the comparison baseline: a conventional
// single-bus "multi" (Bell's term) with Goodman's write-once snooping
// cache protocol [Good83] — the machine class the paper says is "limited
// to some tens of processors" because every cache controller must observe
// every bus transaction on one shared bus.
//
// Write-once states per line:
//
//	Invalid  — not present.
//	Valid    — clean, possibly shared; memory is current.
//	Reserved — written exactly once since loaded; memory is current and
//	           this is the only cached copy.
//	Dirty    — written more than once; memory is stale and this is the
//	           only cached copy.
//
// The first write to a Valid line is written through (one word on the
// bus), invalidating other copies; subsequent writes stay local.
//
// Config.Protocol selects an alternative snooper on the same machine:
// ProtocolMESI runs the four-state invalidation protocol the later
// snooping literature converged on, reusing the write-once state slots
// (Valid ↦ Shared, Reserved ↦ Exclusive-clean, Dirty ↦ Modified). MESI
// differs from write-once in exactly two transitions — a read miss that
// no other cache holds installs Exclusive instead of Valid (the sharers
// wire, op.shared, is sampled during the probe phase), and the
// invalidating write-through from Shared leaves the line Modified
// instead of Reserved, since MESI has no written-exactly-once state.
// Everything else — the atomic bus, the dirty inhibit/supply, the
// write-back buffer, the invariant checker — is protocol-independent
// and shared verbatim, which is what makes the two snoopers
// differentially comparable.
//
// The package participates in the explorer's determinism contract: no
// wall clock, no map-order dependence, no scheduling outside the chooser
// seam. multicube-vet enforces this (see internal/analysis).
//
//multicube:deterministic
package singlebus

import (
	"fmt"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/memory"
	"multicube/internal/sim"
)

// Line states. Under ProtocolMESI the same slots carry the MESI
// meanings: Valid is Shared, Reserved is Exclusive (clean), Dirty is
// Modified — every invariant the checker states in terms of the slots
// (single exclusive copy, clean states equal memory) holds for both
// readings.
const (
	Invalid              = cache.Invalid
	Valid    cache.State = 1
	Reserved cache.State = 2
	Dirty    cache.State = 3
)

// Protocol names for Config.Protocol.
const (
	// ProtocolWriteOnce is Goodman's write-once snooper, the default.
	ProtocolWriteOnce = ""
	// ProtocolMESI is the four-state invalidation snooper.
	ProtocolMESI = "mesi"
)

// Addr is a word address.
type Addr uint64

// Config describes the machine.
type Config struct {
	// Processors on the single bus.
	Processors int
	// BlockWords is the cache block size in bus words.
	BlockWords int
	// CacheLines/CacheAssoc size each cache; zero lines means unbounded.
	CacheLines int
	CacheAssoc int
	// Protocol selects the snooper: ProtocolWriteOnce (the default) or
	// ProtocolMESI.
	Protocol string
}

func (c *Config) fillDefaults() {
	if c.BlockWords == 0 {
		c.BlockWords = 16
	}
}

func (c *Config) validate() error {
	if c.Processors < 1 {
		return fmt.Errorf("singlebus: %d processors", c.Processors)
	}
	if c.BlockWords < 1 {
		return fmt.Errorf("singlebus: block size %d", c.BlockWords)
	}
	if c.Protocol != ProtocolWriteOnce && c.Protocol != ProtocolMESI {
		return fmt.Errorf("singlebus: unknown protocol %q", c.Protocol)
	}
	return nil
}

// op kinds on the bus.
type opKind uint8

const (
	opRead      opKind = iota // atomic block read (address through data)
	opReadInv                 // atomic block read with intent to modify
	opWriteWord               // write-once single-word write-through
	opWriteBack               // dirty victim flush
)

var opNames = [...]string{"READ", "READ-INV", "WRITE-WORD", "WRITE-BACK"}

func (k opKind) String() string { return opNames[k] }

type op struct {
	kind   opKind
	origin int
	line   cache.Line
	offset int
	value  uint64
	data   []uint64
	// inhibit is asserted during Probe by a cache holding the line
	// dirty: memory must not reply, the cache will.
	inhibit bool
	// confirmed is asserted during Probe by a write-through's originator
	// when its copy is still Valid at arbitration win; an unconfirmed
	// write-through is void (the originator retries as a write miss) and
	// no other agent acts on it.
	confirmed bool
	// canceled voids a queued write-back whose line was re-read or
	// re-claimed off the originator's write-back buffer before the
	// write-back won the bus: the supplying transaction already updated
	// memory (READ) or transferred ownership (READ-INV), so memory must
	// ignore the stale flush when it finally delivers.
	canceled bool
	// shared is the MESI sharers wire: asserted during Probe by any
	// non-origin cache holding the line in a valid state, it tells a
	// read-miss originator to install Shared rather than Exclusive.
	// Never asserted in write-once mode, so write-once fingerprints are
	// unchanged.
	shared bool
	occ    sim.Time
}

func (o *op) Occupancy() sim.Time { return o.occ }

func (o *op) String() string {
	switch o.kind {
	case opWriteWord:
		return fmt.Sprintf("%v(line %d word %d = %d) by proc%d", o.kind, o.line, o.offset, o.value, o.origin)
	default:
		return fmt.Sprintf("%v(line %d) by proc%d", o.kind, o.line, o.origin)
	}
}

// Machine is the single-bus multiprocessor.
type Machine struct {
	k     *sim.Kernel
	cfg   Config
	bus   *bus.Bus
	procs []*Processor
	mem   *memModule

	// OpLog, when set, observes every delivered bus operation (origin
	// attach index plus a rendered description); the model checker's
	// replay uses it for annotated counterexample traces.
	OpLog func(origin int, op string)

	txnCount   uint64
	txnLatency sim.Time
}

// New builds the machine on a fresh kernel.
func New(cfg Config) (*Machine, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel()
	m := &Machine{k: k, cfg: cfg}
	m.bus = bus.New(k, "bus", bus.FIFO)
	for i := 0; i < cfg.Processors; i++ {
		c, err := cache.New(cache.Config{Lines: cfg.CacheLines, Assoc: cfg.CacheAssoc, BlockWords: cfg.BlockWords})
		if err != nil {
			return nil, err
		}
		p := &Processor{m: m, id: i, cache: c}
		p.busIdx = m.bus.Attach(procAgent{p})
		m.procs = append(m.procs, p)
	}
	st, err := memory.NewStore(cfg.BlockWords)
	if err != nil {
		return nil, err
	}
	m.mem = &memModule{m: m, store: st}
	m.mem.busIdx = m.bus.Attach(memAgent{m.mem})
	return m, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Kernel exposes the simulation kernel.
func (m *Machine) Kernel() *sim.Kernel { return m.k }

// mesi reports whether the MESI snooper is selected.
func (m *Machine) mesi() bool { return m.cfg.Protocol == ProtocolMESI }

// EnableModelChecking puts the machine in exhaustive-exploration mode,
// mirroring coherence.System.EnableModelChecking: every pending kernel
// event is a dispatch candidate (the untimed interpretation) and bus
// grants are deferred so all queued requests reach arbitration. The
// chooser then decides every ordering. Used by internal/mc to check the
// write-once baseline protocol through the same seam as the Multicube.
func (m *Machine) EnableModelChecking(ch sim.Chooser) {
	m.k.SetChooser(ch)
	m.bus.SetChooser(ch)
}

// Bus exposes the shared bus for utilization metrics.
func (m *Machine) Bus() *bus.Bus { return m.bus }

// Processor returns processor i.
func (m *Machine) Processor(i int) *Processor { return m.procs[i] }

// Processors returns the processor count.
func (m *Machine) Processors() int { return len(m.procs) }

// Run drains the machine.
func (m *Machine) Run() sim.Time { return m.k.Run() }

// SeedMemory writes words directly into memory.
func (m *Machine) SeedMemory(addr Addr, words []uint64) {
	bw := Addr(m.cfg.BlockWords)
	for len(words) > 0 {
		line := cache.Line(addr / bw)
		off := int(addr % bw)
		buf := m.mem.store.Peek(memory.Line(line))
		k := copy(buf[off:], words)
		m.mem.store.Write(memory.Line(line), buf)
		words = words[k:]
		addr += Addr(k)
	}
}

// ReadCoherent returns the coherent value of addr (dirty copy or memory);
// an oracle for tests, not a simulated access.
func (m *Machine) ReadCoherent(addr Addr) uint64 {
	line := cache.Line(addr / Addr(m.cfg.BlockWords))
	off := int(addr % Addr(m.cfg.BlockWords))
	for _, p := range m.procs {
		if e, ok := p.cache.Lookup(line); ok && (e.State == Dirty || e.State == Reserved) {
			return e.Data[off]
		}
	}
	return m.mem.store.Peek(memory.Line(line))[off]
}

// TxnStats reports completed processor transactions (bus-using misses and
// write-throughs) and their mean latency.
func (m *Machine) TxnStats() (count uint64, mean sim.Time) {
	if m.txnCount == 0 {
		return 0, 0
	}
	return m.txnCount, m.txnLatency / sim.Time(m.txnCount)
}

// readOp is an atomic miss transaction: the bus is held for the address
// cycles, the device access, and the block transfer. The bus and device
// timing is the Multicube's (Figure 2's constants), so the two machines
// compare at one point.
func (m *Machine) readOp(kind opKind, origin int, line cache.Line) *op {
	lat := max(bus.MemoryLatency, bus.CacheLatency)
	return &op{kind: kind, origin: origin, line: line,
		occ: sim.Time(bus.AddrWords+m.cfg.BlockWords)*bus.WordTime + lat}
}

func (m *Machine) dataOp(kind opKind, origin int, line cache.Line, data []uint64) *op {
	buf := make([]uint64, m.cfg.BlockWords)
	copy(buf, data)
	return &op{kind: kind, origin: origin, line: line, data: buf,
		occ: sim.Time(bus.AddrWords+m.cfg.BlockWords) * bus.WordTime}
}

func (m *Machine) wordOp(origin int, line cache.Line, offset int, value uint64) *op {
	return &op{kind: opWriteWord, origin: origin, line: line, offset: offset, value: value,
		occ: (bus.AddrWords + 1) * bus.WordTime}
}
