// Package core assembles the complete Wisconsin Multicube machine and is
// the primary public API of this library: an n×n grid of processors, each
// with a small write-through processor cache (SRAM) in front of a large
// snooping cache (DRAM), connected by row and column buses running the
// cache consistency protocol of Appendix A, with interleaved main memory
// on the column buses.
//
// Programs drive the machine two ways:
//
//   - Asynchronously, through Processor's LoadAsync/StoreAsync and the
//     synchronization calls — the style used by workload generators.
//   - As ordinary Go functions, through Machine.Spawn: each function runs
//     as a simulated process whose Load/Store/lock calls advance simulated
//     time. The examples in this repository are written this way.
//
// The programmer's view matches the paper's: a single coherent shared
// memory with no notion of geographical locality.
package core

import (
	"fmt"
	"math/bits"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/coherence"
	"multicube/internal/memory"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// Addr is a word address in the shared memory.
type Addr uint64

// Config describes a machine. The zero value of most fields selects the
// paper's defaults (16-word blocks, unbounded snooping caches and tables,
// the Figure 2 timing constants).
type Config struct {
	// N is the number of processors per bus; the machine has N×N
	// processors (the paper scales n to about 32 for 1,024 processors).
	N int
	// BlockWords is the coherency/transfer block size in bus words.
	BlockWords int
	// L1Lines and L1Assoc size the processor cache. Zero L1Lines
	// disables the L1 model entirely (every reference goes to the
	// snooping cache), which is the right configuration for protocol
	// experiments.
	L1Lines int
	L1Assoc int
	// CacheLines, CacheAssoc, MLTEntries, MLTAssoc size the snooping
	// cache and modified line table; zero means unbounded.
	CacheLines int
	CacheAssoc int
	MLTEntries int
	MLTAssoc   int
	// Arbitration selects the bus service discipline (FIFO default; see
	// bus.Arbitration). The paper's model is FCFS; the alternatives
	// exist for the service-discipline ablation.
	Arbitration bus.Arbitration
	// Snarf enables the retained-tag snarf optimization.
	Snarf bool
	// Parallel is accepted and ignored (see Machine.Parallel).
	Parallel int
}

// Machine is one simulated Wisconsin Multicube.
type Machine struct {
	k          *sim.Kernel
	sys        *coherence.System
	procs      []*Processor
	cfg        Config
	blockShift uint // log2 BlockWords if that is a power of two, else 0
}

// New builds a machine.
func New(cfg Config) (*Machine, error) {
	k := sim.NewKernel()
	ccfg := coherence.Config{
		N:           cfg.N,
		BlockWords:  cfg.BlockWords,
		CacheLines:  cfg.CacheLines,
		CacheAssoc:  cfg.CacheAssoc,
		MLTEntries:  cfg.MLTEntries,
		MLTAssoc:    cfg.MLTAssoc,
		Arbitration: cfg.Arbitration,
		Snarf:       cfg.Snarf,
	}
	sys, err := coherence.NewSystem(k, ccfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{k: k, sys: sys, cfg: cfg}
	m.cfg.BlockWords = sys.Config().BlockWords
	if bw := m.cfg.BlockWords; bw&(bw-1) == 0 {
		m.blockShift = uint(bits.TrailingZeros(uint(bw)))
	}
	n := cfg.N
	m.procs = make([]*Processor, n*n)
	grid := sys.Grid()
	for id := range m.procs {
		coord := grid.Coord(topology.NodeID(id))
		p := &Processor{m: m, id: id, node: sys.Node(coord)}
		p.onDone = p.complete
		if cfg.L1Lines > 0 {
			l1, err := cache.NewProcessorCache(cfg.L1Lines, cfg.L1Assoc, m.cfg.BlockWords)
			if err != nil {
				return nil, fmt.Errorf("core: processor %d: %w", id, err)
			}
			p.l1 = l1
			p.node.OnInvalidate = func(line cache.Line) { l1.Invalidate(line) }
			sys.RegisterInclusion(fmt.Sprintf("processor %d", id), coord, l1.Lines)
		}
		m.procs[id] = p
	}
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

// Processors returns the total processor count.
func (m *Machine) Processors() int { return len(m.procs) }

// Processor returns the processor with linearized id (row-major).
func (m *Machine) Processor(id int) *Processor { return m.procs[id] }

// Kernel exposes the simulation kernel for scheduling and clock access.
func (m *Machine) Kernel() *sim.Kernel { return m.k }

// System exposes the coherence layer for metrics and invariant checks.
func (m *Machine) System() *coherence.System { return m.sys }

// Config returns the machine configuration with defaults filled.
func (m *Machine) Config() Config { return m.cfg }

// BlockWords returns the coherency block size in words.
func (m *Machine) BlockWords() int { return m.cfg.BlockWords }

// LineOf returns the coherency block containing addr and the word offset
// within it.
func (m *Machine) LineOf(addr Addr) (cache.Line, int) {
	bw := Addr(m.cfg.BlockWords)
	if s := m.blockShift; s != 0 {
		return cache.Line(addr >> s), int(addr & (bw - 1))
	}
	return cache.Line(addr / bw), int(addr % bw)
}

// Run drains the machine: all spawned programs and outstanding requests
// complete. It returns the final simulated time.
func (m *Machine) Run() sim.Time { return m.k.Run() }

// Executed reports the events the kernel has dispatched.
func (m *Machine) Executed() uint64 { return m.k.Executed() }

// Parallel reports false and Runner nil: the machine runs on one kernel.
// They and Config.Parallel remain only because the benchmark harness
// compiles against them; ROADMAP item 1 deletes them with its probeRunner.
func (m *Machine) Parallel() bool { return false }

func (m *Machine) Runner() *runnerStub { return nil }

type runnerStub struct{}

func (*runnerStub) Stats() runnerStub   { return runnerStub{} }
func (runnerStub) Parallelism() float64 { return 1 }

// SeedMemory writes words directly into main memory before (or between)
// runs, bypassing the protocol — the moral equivalent of loading an
// initial image. It must not be used for lines currently held modified.
func (m *Machine) SeedMemory(addr Addr, words []uint64) {
	for len(words) > 0 {
		line, off := m.LineOf(addr)
		mem := m.sys.MemoryAt(m.sys.Grid().HomeColumn(topology.LineID(line))).Store()
		buf := mem.Peek(memory.Line(line))
		k := copy(buf[off:], words)
		mem.Write(memory.Line(line), buf)
		words = words[k:]
		addr += Addr(k)
	}
}

// ReadMemory returns the word at addr as main memory sees it (possibly
// stale if a cache holds the line modified).
func (m *Machine) ReadMemory(addr Addr) uint64 {
	line, off := m.LineOf(addr)
	mem := m.sys.MemoryAt(m.sys.Grid().HomeColumn(topology.LineID(line))).Store()
	return mem.Peek(memory.Line(line))[off]
}

// ReadCoherent returns the current coherent value of addr: the modified
// copy if one exists, else memory. It is an oracle for tests and tools,
// not a simulated access.
func (m *Machine) ReadCoherent(addr Addr) uint64 {
	line, off := m.LineOf(addr)
	n := m.cfg.N
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			nd := m.sys.Node(topology.Coord{Row: r, Col: c})
			if e, ok := nd.Cache().Lookup(line); ok && e.State == coherence.Modified {
				return e.Data[off]
			}
		}
	}
	return m.ReadMemory(addr)
}

// CheckInvariants runs the coherence oracle; meaningful only at
// quiescence. The L1⊆L2 inclusion discipline is enforced there too: New
// registers every processor cache with coherence.RegisterInclusion, so
// machine layers cannot forget the check.
func (m *Machine) CheckInvariants() []error {
	return coherence.CheckInvariants(m.sys)
}
