package coherence

import (
	"fmt"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/memory"
	"multicube/internal/mlt"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// Snooping-cache line modes (Section 3): with respect to a particular
// cache, a line is shared (global state unmodified), modified (global
// state modified, present only in this cache), or invalid. Reserved is the
// additional mode of Section 4: space allocated for a SYNC queue handoff
// that has not arrived yet.
const (
	Invalid              = cache.Invalid
	Shared   cache.State = 1
	Modified cache.State = 2
	Reserved cache.State = 3
)

// StateName renders a line mode for diagnostics.
func StateName(s cache.State) string {
	switch s {
	case Invalid:
		return "invalid"
	case Shared:
		return "shared"
	case Modified:
		return "modified"
	case Reserved:
		return "reserved"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Word roles within a line used by the synchronization transactions.
const (
	// LockWord is the designated test-and-set word.
	LockWord = 0
	// LinkWord holds the id of the next queue member in the SYNC
	// distributed queue ("occupying a single word in different copies of
	// the line").
	LinkWord = 1
)

// Timing holds the temporal parameters of the machine, defaulted to the
// figures the paper's evaluation uses.
type Timing struct {
	// WordTime is the bus transfer time per word (paper: 1 bus word
	// every 50 ns).
	WordTime sim.Time
	// AddrWords is the bus occupancy, in word times, of an
	// address-and-command operation.
	AddrWords int
	// CacheLatency is the snooping-cache access time before a controller
	// can supply data (paper: 750 ns).
	CacheLatency sim.Time
	// MemoryLatency is the main memory access time (paper: 750 ns).
	MemoryLatency sim.Time
	// ForwardLatency is the controller overhead to relay an operation
	// from one bus to the other.
	ForwardLatency sim.Time
}

// DefaultTiming returns the constants from Figure 2's caption.
func DefaultTiming() Timing {
	return Timing{
		WordTime:       50 * sim.Nanosecond,
		AddrWords:      1,
		CacheLatency:   750 * sim.Nanosecond,
		MemoryLatency:  750 * sim.Nanosecond,
		ForwardLatency: 0,
	}
}

// Config describes one Wisconsin Multicube machine.
type Config struct {
	// N is the number of processors per bus; the machine has N×N nodes.
	N int
	// BlockWords is the coherency (and transfer) block size in bus words.
	BlockWords int
	// CacheLines and CacheAssoc size each snooping cache; zero lines
	// means unbounded (the paper's "very large" DRAM cache).
	CacheLines int
	CacheAssoc int
	// MLTEntries and MLTAssoc size each modified line table; zero
	// entries means unbounded.
	MLTEntries int
	MLTAssoc   int
	// Timing defaults to DefaultTiming when zero.
	Timing Timing
	// Arbitration selects the bus arbitration policy.
	Arbitration bus.Arbitration
	// Snarf enables acquiring a recently-held invalid line in shared
	// mode as it passes by on a bus (Section 3).
	Snarf bool
}

func (c *Config) fillDefaults() {
	if c.BlockWords == 0 {
		c.BlockWords = 16
	}
	if c.Timing == (Timing{}) {
		c.Timing = DefaultTiming()
	}
	if c.Timing.AddrWords == 0 {
		c.Timing.AddrWords = 1
	}
}

func (c *Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("coherence: N = %d, need at least 2 processors per bus", c.N)
	}
	if c.BlockWords < 2 {
		return fmt.Errorf("coherence: block size %d words, need at least 2 (lock and link words)", c.BlockWords)
	}
	if c.Timing.WordTime == 0 {
		return fmt.Errorf("coherence: zero word time")
	}
	return nil
}

// TxnStats aggregates completed transactions of one type.
type TxnStats struct {
	Count        uint64
	TotalLatency sim.Time
	RowOps       uint64
	ColOps       uint64
}

// MeanLatency returns the average issue-to-completion latency.
func (s TxnStats) MeanLatency() sim.Time {
	if s.Count == 0 {
		return 0
	}
	return s.TotalLatency / sim.Time(s.Count)
}

// MeanOps returns the average bus operations per transaction.
func (s TxnStats) MeanOps() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.RowOps+s.ColOps) / float64(s.Count)
}

// System is one assembled machine: the grid of nodes, the row and column
// buses, and the per-column memory modules.
type System struct {
	k    *sim.Kernel
	grid topology.Grid
	cfg  Config

	rows  []*bus.Bus
	cols  []*bus.Bus
	nodes [][]*Node // [row][col]
	mems  []*Memory // per column

	// acct is the transaction accounting Stats and StrayReplies read.
	acct accounting

	// OpLog, when set, observes every bus operation as it is issued;
	// tests use it for protocol traces. It reads the operation during the
	// call and keeps no pointer to it: operations are recycled (newOp).
	OpLog func(dim Dim, issuer topology.Coord, op *Op)

	// Fault, when set, is consulted before every controller-issued bus
	// operation; returning true DROPS the operation. It exists to test
	// the protocol's robustness claim: "a controller can, on occasion,
	// simply discard such requests without breaking the protocol" —
	// the memory valid bit re-drives dropped work.
	Fault func(dim Dim, issuer topology.Coord, op *Op) bool

	// SuppressSignal, when set, makes a controller fail to respond to a
	// row request entirely — neither asserting the modified signal nor
	// forwarding onto its column. This is the precise failure Section 3
	// analyzes: the request is then routed (incorrectly) onto the home
	// column, retransmitted by main memory because the line is invalid
	// there, and forwarded back onto the originator's row as if it were
	// an original request.
	SuppressSignal func(n topology.Coord, op *Op) bool

	// DisableStaleReplyPoisoning is a test hook that switches off the
	// stale in-flight reply defense of DESIGN.md §5.6a: an invalidating
	// broadcast passing the requester's row no longer poisons its
	// outstanding READ. The model checker uses it to demonstrate that
	// exhaustive exploration finds the stale-sharer states the defense
	// exists to prevent. Never set it outside tests and checker demos.
	DisableStaleReplyPoisoning bool

	// Observer, when set, receives one SnoopEvent per delivered bus
	// operation at a controller: the pre/post line views, the probe wire
	// signals, and the bus operations the handler scheduled in response.
	// Like OpLog it is a passive test hook — installing it never changes
	// protocol behavior or fingerprints. internal/protocol's conformance
	// harness is its consumer.
	Observer func(SnoopEvent)

	// obsSink, while a snoop dispatch is being observed, collects the
	// action intents the handler issues; nil outside a snoop window.
	//
	//multicube:fpexempt observation plumbing, invisible to fingerprints
	obsSink *[]ActionIntent

	// inclusions holds the registered upper-level cache views whose
	// containment in a node's snooping cache CheckInvariants enforces.
	inclusions []inclusionView

	dropped uint64

	// delivered counts the snoopers' work (Delivered): host work, never
	// saved or rewound.
	delivered DeliveryStats

	// free holds delivered and dropped operations for newOp; the first
	// Save sets saved, which stops release for good (DESIGN.md §5.10).
	free  []*Op
	saved bool

	// labels say under which epoch every component Save and Load copy one
	// by one stands — row buses, column buses, memories, then nodes
	// row-major — and clock is the last epoch drawn (rewind.go).
	// Bookkeeping of the rewind, not state: never saved or rewound, and
	// drawn once by NewSystem. onSkip, when set, is told of every
	// component a Save or a Load leaves in place; tests hold it to the
	// buffer's copy there.
	labels []label
	clock  uint64
	onSkip func(st *Saved, i int, load bool)

	// fpIdent/fpInv are reusable Fingerprint scratch: the cached identity
	// permutation and the inverse-permutation buffer (rows); fpCInv is
	// the column counterpart. A System is bound to one kernel and is not
	// fingerprinted concurrently.
	fpIdent, fpInv, fpCInv []int
}

// EnqueueTag tags a device-latency kernel event whose only effect, when
// it fires, is to enqueue Op on a bus (plus fault-injection accounting).
// Model checkers treat these events as commuting with everything except
// a pending arbitration on the same bus. The tag is one pointer, which
// the kernel holds without allocating; the rest is read off the
// operation.
type EnqueueTag struct{ Op *Op }

// Issuer is the issuing controller, or {Row: -1, Col: c} for the memory
// module on column c.
func (t EnqueueTag) Issuer() topology.Coord { return t.Op.issuer }

// Dim is the kind of bus the event will enqueue on: the issuer's row
// bus or its column bus.
func (t EnqueueTag) Dim() Dim { return t.Op.dim }

func (t EnqueueTag) String() string {
	return fmt.Sprintf("enqueue %v %v by %v", t.Dim(), t.Op, t.Issuer())
}

// enqueueBus returns the bus the tagged event will enqueue on.
func (s *System) enqueueBus(t EnqueueTag) *bus.Bus {
	if t.Dim() == Row {
		return s.rows[t.Issuer().Row]
	}
	return s.cols[t.Issuer().Col]
}

// DroppedOps counts operations discarded by the fault injector.
func (s *System) DroppedOps() uint64 { return s.dropped }

// NewSystem builds a machine on the given kernel.
func NewSystem(k *sim.Kernel, cfg Config) (*System, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	grid, err := topology.NewGrid(cfg.N)
	if err != nil {
		return nil, err
	}
	s := &System{k: k, grid: grid, cfg: cfg}
	n := cfg.N
	s.rows = make([]*bus.Bus, n)
	s.cols = make([]*bus.Bus, n)
	for i := 0; i < n; i++ {
		s.rows[i] = bus.New(k, fmt.Sprintf("row%d", i), cfg.Arbitration)
		s.cols[i] = bus.New(k, fmt.Sprintf("col%d", i), cfg.Arbitration)
	}
	s.nodes = make([][]*Node, n)
	for r := 0; r < n; r++ {
		s.nodes[r] = make([]*Node, n)
		for c := 0; c < n; c++ {
			nd, err := newNode(s, topology.Coord{Row: r, Col: c})
			if err != nil {
				return nil, err
			}
			s.nodes[r][c] = nd
		}
	}
	// Attach in deterministic order: nodes row-major on their buses,
	// memory after them on each column, all as requesters; then the one
	// snooper that delivers each bus's operations to them.
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			nd := s.nodes[r][c]
			nd.rowIdx = s.rows[r].Attach(nil)
			nd.colIdx = s.cols[c].Attach(nil)
		}
	}
	s.mems = make([]*Memory, n)
	for c := 0; c < n; c++ {
		st, err := memory.NewStore(cfg.BlockWords)
		if err != nil {
			return nil, err
		}
		m := &Memory{sys: s, col: c, store: st}
		m.enqueueFn = m.enqueue
		m.busIdx = s.cols[c].Attach(nil)
		s.mems[c] = m
	}
	for i := 0; i < n; i++ {
		row := &snooper{s: s, dim: Row, nodes: s.nodes[i]}
		col := &snooper{s: s, dim: Col, nodes: make([]*Node, n), mem: s.mems[i]}
		for r := range col.nodes {
			col.nodes[r] = s.nodes[r][i]
		}
		s.rows[i].Attach(row)
		s.cols[i].Attach(col)
	}
	s.labels = make([]label, 3*n+n*n)
	for i := range s.labels {
		s.fresh(i)
	}
	return s, nil
}

// MustNewSystem is NewSystem but panics on error.
func MustNewSystem(k *sim.Kernel, cfg Config) *System {
	s, err := NewSystem(k, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Kernel returns the simulation kernel.
func (s *System) Kernel() *sim.Kernel { return s.k }

// EnableModelChecking puts the machine in exhaustive-exploration mode:
// every pending kernel event is a dispatch candidate (the untimed
// interpretation, where any message may take arbitrarily long), and bus
// grants are deferred so all queued requests reach arbitration. The
// chooser then decides every ordering. Used by internal/mc.
func (s *System) EnableModelChecking(ch sim.Chooser) {
	s.k.SetChooser(ch)
	for _, b := range s.rows {
		b.SetChooser(ch)
	}
	for _, b := range s.cols {
		b.SetChooser(ch)
	}
}

// Config returns the machine configuration (with defaults filled).
func (s *System) Config() Config { return s.cfg }

// Grid returns the machine's topology.
func (s *System) Grid() topology.Grid { return s.grid }

// Node returns the controller at coordinate c.
func (s *System) Node(c topology.Coord) *Node { return s.nodes[c.Row][c.Col] }

// NodeByID returns the controller with the given linearized id.
func (s *System) NodeByID(id topology.NodeID) *Node {
	return s.Node(s.grid.Coord(id))
}

// MemoryAt returns the memory module on column c.
func (s *System) MemoryAt(c int) *Memory { return s.mems[c] }

// RowBus and ColBus expose the buses for metrics.
func (s *System) RowBus(i int) *bus.Bus { return s.rows[i] }
func (s *System) ColBus(i int) *bus.Bus { return s.cols[i] }

// Stats returns the per-transaction aggregates keyed by type.
func (s *System) Stats() map[Txn]TxnStats {
	out := make(map[Txn]TxnStats, len(txnNames))
	for t, st := range s.acct.txnStats {
		if st.Count != 0 { // a type that never completed has no entry
			out[Txn(t)] = st
		}
	}
	return out
}

// StrayReplies counts replies that arrived with no matching outstanding
// request; always zero in a correct run.
func (s *System) StrayReplies() uint64 { return s.acct.strays }

// Reissues counts requests retransmitted after lost races, summed over
// every controller and memory module (the per-agent figures are in
// NodeStats and memory.Stats). The model checker bounds it after every
// kernel step.
func (s *System) Reissues() uint64 {
	var n uint64
	for _, row := range s.nodes {
		for _, nd := range row {
			n += nd.stats.Reissues
		}
	}
	for _, m := range s.mems {
		n += m.store.Stats().Reissues
	}
	return n
}

// homeColumn maps a line to its home column.
func (s *System) homeColumn(line cache.Line) int {
	return s.grid.HomeColumn(topology.LineID(line))
}

// encodeNode packs a node id into a link word (0 means none).
func (s *System) encodeNode(c topology.Coord) uint64 {
	return uint64(s.grid.ID(c)) + 1
}

// decodeNode unpacks a link word; ok is false for the zero (none) value.
func (s *System) decodeNode(w uint64) (topology.Coord, bool) {
	if w == 0 {
		return topology.Coord{}, false
	}
	return s.grid.Coord(topology.NodeID(w - 1)), true
}

// addrOccupancy and dataOccupancy compute bus hold times.
func (s *System) addrOccupancy() sim.Time {
	return sim.Time(s.cfg.Timing.AddrWords) * s.cfg.Timing.WordTime
}

func (s *System) dataOccupancy() sim.Time {
	return sim.Time(s.cfg.Timing.AddrWords+s.cfg.BlockWords) * s.cfg.Timing.WordTime
}

// newOp returns an operation holding o, recycled from the free list when
// one is there: a recycled operation keeps only its payload block.
func (s *System) newOp(o Op) *Op {
	var op *Op
	if n := len(s.free); n > 0 {
		op, s.free = s.free[n-1], s.free[:n-1]
		o.buf = op.buf
		s.delivered.OpsReused++
	} else {
		op = new(Op)
		s.delivered.OpsBuilt++
	}
	*op = o
	return op
}

// release returns a delivered or dropped operation to the free list,
// unless the machine was ever saved.
func (s *System) release(op *Op) {
	if !s.saved {
		op.released = true
		s.free = append(s.free, op)
	}
}

// addrOp builds an address-and-command operation.
func (s *System) addrOp(txn Txn, flags Flags, origin topology.Coord, line cache.Line, trace *TxnTrace) *Op {
	return s.newOp(Op{Txn: txn, Flags: flags, Origin: origin, Line: line, occ: s.addrOccupancy(), trace: trace})
}

// replyOp builds a data reply, or an address-only acknowledgement when
// data is nil (the ALLOCATE variant).
func (s *System) replyOp(txn Txn, flags Flags, origin topology.Coord, line cache.Line, data []uint64, trace *TxnTrace) *Op {
	if data == nil {
		return s.addrOp(txn, flags, origin, line, trace)
	}
	return s.dataOp(txn, flags, origin, line, data, trace)
}

// dataOp builds a data-carrying operation whose payload is born now,
// copying data (a cache entry's words, or the payload of the operation
// being relayed) into the operation's own block.
func (s *System) dataOp(txn Txn, flags Flags, origin topology.Coord, line cache.Line, data []uint64, trace *TxnTrace) *Op {
	op := s.newOp(Op{Txn: txn, Flags: flags, Origin: origin, Line: line, occ: s.dataOccupancy(), trace: trace, born: s.k.Now()})
	if op.buf == nil {
		op.buf = make([]uint64, s.cfg.BlockWords)
	}
	op.Data = op.buf
	clear(op.Data[copy(op.Data, data):])
	return op
}

// forwardOp rebuilds a data reply for the next bus hop, preserving the
// payload's birth time.
func (s *System) forwardOp(src *Op, flags Flags, trace *TxnTrace) *Op {
	op := s.dataOp(src.Txn, flags, src.Origin, src.Line, src.Data, trace)
	op.born = src.born
	return op
}

// accounting is the machine's transaction accounting: completed
// transactions by type, and stray replies.
type accounting struct {
	txnStats [len(txnNames)]TxnStats // indexed by Txn
	strays   uint64
}

func (a *accounting) recordCompletion(now sim.Time, tr *TxnTrace) {
	if tr == nil {
		return
	}
	st := &a.txnStats[tr.Txn]
	st.Count++
	st.TotalLatency += now - tr.Started
	st.RowOps += uint64(tr.RowOps)
	st.ColOps += uint64(tr.ColOps)
}

// Interface checks.
var (
	_ bus.Agent = (*snooper)(nil)
	_ mlt.Line  = 0 // mlt and cache line types stay convertible
)
