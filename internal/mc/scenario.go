// Package mc is an exhaustive interleaving model checker for the
// Appendix A coherence protocol. It drives the real protocol engine —
// the same internal/coherence code the timed simulator runs — through
// every reachable interleaving of a small bounded scenario, checking
// safety invariants after every kernel step and the full quiescent-state
// oracle, a per-address sequential-consistency witness, and program
// completion at the end of every execution.
//
// A branch of the search is a choice sequence: an execution follows its
// prefix and continues with default choices. The protocol engine's state
// lives partly in closures (pending events, outstanding transactions), so
// a machine cannot be copied — but it can be rewound in place, because
// those closures capture only the machine's own long-lived objects and
// immutable values: at every scheduler choice point that leaves a sibling
// branch, the run saves the machine's data into a reusable buffer
// (coherence.System.Save), and the sibling starts by loading it back into
// the same machine instead of resetting it and re-executing the prefix.
// Where no boundary is usable — the first run, work read back from a
// checkpoint, the single-bus machine — the branch replays its prefix
// from the initial state, which is the same code path with nothing to
// load. Exploration is an iterative-deepening
// DFS over choice sequences with a visited-state table keyed by canonical
// fingerprints (internal/coherence's Fingerprint, minimized over row and
// column relabelings), and a partial-order reduction (sleep.go): a
// persistent-set rule that eager-fires an enabled event independent of
// every other enabled one, and sleep sets that prune the interleavings a
// sibling branch already covers.
//
// Nondeterminism model: the machine is explored under the untimed
// interpretation — any pending event (a bus grant, a delivery, a
// controller's latency expiry, a processor's next reference) may fire
// next, regardless of its nominal timestamp. This makes every protocol
// race window reachable no matter what the latency constants are; the
// paper's protocol must be correct for arbitrary message timing.
package mc

import (
	"fmt"

	"multicube/internal/singlebus"
	"multicube/internal/topology"
)

// OpKind is one processor operation in a scenario program.
type OpKind uint8

const (
	// OpRead is a processor read of the line's first word.
	OpRead OpKind = iota
	// OpWrite obtains the line modified and writes a unique value to its
	// first word (the sequential-consistency witness tracks these).
	OpWrite
	// OpAllocate is the ALLOCATE hint: obtain the line modified,
	// zero-filled, without reading its prior contents.
	OpAllocate
	// OpWriteBack explicitly writes a modified line back to memory.
	OpWriteBack
	// OpTAS is a single try of the remote test-and-set on the line's
	// lock word; the program proceeds whether or not it acquired.
	OpTAS
	// OpSync is a single SYNC queue-join attempt; the program proceeds
	// once the lock arrives, or immediately on the degenerate MustSpin
	// outcome.
	OpSync
	// OpUnlock releases a lock this processor acquired with OpTAS or
	// OpSync (a no-op if it never acquired it).
	OpUnlock
)

var opKindNames = [...]string{"R", "W", "ALLOC", "WB", "TAS", "SYNC", "UNLOCK"}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// ProcOp is one step of a processor's program.
type ProcOp struct {
	Kind OpKind
	Line uint64
}

// Proc is one processor's bounded program.
type Proc struct {
	At  topology.Coord
	Ops []ProcOp
}

// Scenario is one bounded model-checking problem: a machine
// configuration and a program per participating processor.
type Scenario struct {
	Name string
	// N is processors per bus (the machine is N×N).
	N int
	// BlockWords defaults to 2 (the minimum: lock and link words).
	BlockWords int
	// CacheLines/CacheAssoc and MLTEntries/MLTAssoc bound the cache and
	// modified line table; zero means unbounded.
	CacheLines, CacheAssoc int
	MLTEntries, MLTAssoc   int
	// Snarf enables the Section 3 snarf optimization.
	Snarf bool
	// InjectStaleReply disables the stale in-flight reply defense
	// (DESIGN.md §5.6a) to demonstrate the checker catching the
	// resulting stale-sharer states.
	InjectStaleReply bool
	// SingleBus runs the scenario on the single-bus write-once baseline
	// (internal/singlebus) instead of the Multicube, through the same
	// chooser seam: processors are identified by program position (At is
	// ignored), only OpRead and OpWrite are meaningful, and the same
	// explorer, oracles, and sequential-consistency witness apply.
	SingleBus bool
	// Protocol selects the single-bus snooper: "" (write-once, the
	// default) or "mesi". Meaningful only with SingleBus; the Multicube
	// grid has exactly one protocol.
	Protocol string
	// CheckSC additionally checks every completed execution's history for
	// full cross-address sequential consistency (internal/memmodel's
	// witness-order search), not just per-address coherence. Opt-in
	// because the Multicube's untimed interpretation genuinely admits
	// non-SC executions across addresses — a delayed row purge can leave
	// a stale Shared copy readable after a later line's value was
	// observed (see the stale-shared-mp preset) — so unconditional
	// checking would fail arbitrary scenarios by design, not by bug.
	CheckSC bool
	Procs   []Proc
}

// FillDefaults resolves zero-valued configuration to the explorer's
// defaults (a 2×2 grid, two-word blocks). Explore applies it
// automatically; external canonicalizers (the farm's job fingerprints)
// call it so a spec with defaults spelled out and one with them omitted
// canonicalize identically.
func (s *Scenario) FillDefaults() {
	if s.N == 0 {
		s.N = 2
	}
	if s.BlockWords == 0 {
		s.BlockWords = 2
	}
}

// TotalOps returns the summed program length.
func (s *Scenario) TotalOps() int {
	n := 0
	for _, p := range s.Procs {
		n += len(p.Ops)
	}
	return n
}

// Validate reports scenario construction errors.
func (s *Scenario) Validate() error {
	if len(s.Procs) == 0 {
		return fmt.Errorf("mc: scenario %q has no processors", s.Name)
	}
	if s.Protocol != "" && !s.SingleBus {
		return fmt.Errorf("mc: scenario %q: Protocol %q requires SingleBus", s.Name, s.Protocol)
	}
	if s.Protocol != singlebus.ProtocolWriteOnce && s.Protocol != singlebus.ProtocolMESI {
		return fmt.Errorf("mc: scenario %q: unknown protocol %q", s.Name, s.Protocol)
	}
	if s.SingleBus {
		for p, pr := range s.Procs {
			if len(pr.Ops) == 0 {
				return fmt.Errorf("mc: scenario %q: processor %d has an empty program", s.Name, p)
			}
			for _, op := range pr.Ops {
				if op.Kind != OpRead && op.Kind != OpWrite {
					return fmt.Errorf("mc: scenario %q: op %v not supported on the single-bus baseline", s.Name, op.Kind)
				}
			}
		}
		return nil
	}
	seen := make(map[topology.Coord]bool)
	for _, p := range s.Procs {
		if p.At.Row < 0 || p.At.Row >= s.N || p.At.Col < 0 || p.At.Col >= s.N {
			return fmt.Errorf("mc: scenario %q: processor %v outside the %dx%d grid", s.Name, p.At, s.N, s.N)
		}
		if seen[p.At] {
			return fmt.Errorf("mc: scenario %q: two programs on processor %v", s.Name, p.At)
		}
		seen[p.At] = true
		if len(p.Ops) == 0 {
			return fmt.Errorf("mc: scenario %q: processor %v has an empty program", s.Name, p.At)
		}
	}
	return nil
}

// Presets returns the built-in scenario names.
func Presets() []string {
	names := []string{
		"readmod-race", "read-race", "sync-race", "mlt-overflow-lock",
		"tas-contention", "wb-locked", "sync-fail", "read-snarf", "readmod-row-pair",
		"sync-col-queue", "readmod-col-pair", "snarf-row-3x3",
		"read-col-pair", "tas-purge-remote", "sync-purge-remote",
		"snarf-serve-row", "wb-steal", "sync-tail-row", "sync-tail-remote", "sync-col-3x3",
		"sync-read-mix", "readmod-race-3x3", "mlt-churn-3x3",
		"sb-writeonce-race", "sb-victim-race",
		"sb-mesi-race", "sb-mesi-victim-race", "stale-shared-mp",
	}
	return append(names, litmusPresetNames()...)
}

// Preset returns a built-in bounded scenario by name.
//
// Lines are chosen so their home columns exercise both local and remote
// paths on a 2×2 grid: even lines are homed on column 0, odd lines on
// column 1.
func Preset(name string) (Scenario, error) {
	c := func(r, col int) topology.Coord { return topology.Coord{Row: r, Col: col} }
	switch name {
	case "readmod-race":
		// Two writers race READMOD transactions for the same line from
		// different rows and columns, then read it back; a second line
		// on the same home column keeps the column bus contended.
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpWrite, 0}, {OpRead, 0}, {OpWrite, 2}, {OpRead, 0}}},
				{At: c(1, 1), Ops: []ProcOp{{OpWrite, 0}, {OpRead, 2}, {OpRead, 0}}},
			},
		}, nil
	case "read-race":
		// A reader's READ is in flight while a writer's READMOD purge
		// crosses it: the stale in-flight reply window of DESIGN.md
		// §5.6a. With InjectStaleReply the defense is off and the
		// checker finds the stale sharer.
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpRead, 1}, {OpRead, 1}}},
				{At: c(1, 1), Ops: []ProcOp{{OpWrite, 1}, {OpWrite, 1}}},
			},
		}, nil
	case "sync-race":
		// Three processors race SYNC queue joins and handoffs on one
		// lock line: the join-admission and XFER-overtakes-QUEUED races
		// of Section 4.
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
				{At: c(1, 1), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
				{At: c(1, 0), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
			},
		}, nil
	case "mlt-overflow-lock":
		// A single-entry modified line table forces an overflow while a
		// lock line is sync-active and pinned: the overflow must
		// re-insert the pinned entry (footnote 7) rather than strand
		// the queue. The second node sits in the other column: its write
		// to line 4 inserts into column 0's table over the remote path
		// (row bus, then the home column bus), keeping the contended
		// table busy, while its read of line 5 stays on its own column —
		// traffic the partial-order reduction can prove independent of
		// column 0's and prune.
		return Scenario{
			Name: name, N: 2,
			MLTEntries: 1, MLTAssoc: 1,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpTAS, 0}, {OpWrite, 2}, {OpUnlock, 0}}},
				{At: c(1, 1), Ops: []ProcOp{{OpWrite, 4}, {OpRead, 5}}},
			},
		}, nil
	case "readmod-race-3x3":
		// The readmod race on a 3×3 grid: two writers in different rows
		// AND different columns race READMOD transactions for one line
		// homed on a third party's column, so requests, purges, and
		// replies cross four of the six buses. On 3×3, line L is homed
		// on column L%3.
		return Scenario{
			Name: name, N: 3,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpWrite, 0}, {OpRead, 0}}},
				{At: c(1, 2), Ops: []ProcOp{{OpWrite, 0}, {OpRead, 0}}},
			},
		}, nil
	case "mlt-churn-3x3":
		// Modified-line-table churn across two home columns on a 3×3
		// grid: with single-entry tables, one node's writes to lines
		// homed on columns 0 and 1 force back-to-back MLT inserts and
		// overflow removes in both columns, while a second node two rows
		// away races a remote read of the churned line — its request
		// crosses row 2 and column 1 while the writer's own traffic
		// crosses row 0 and both home columns.
		return Scenario{
			Name: name, N: 3,
			MLTEntries: 1, MLTAssoc: 1,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpWrite, 0}, {OpWrite, 1}}},
				{At: c(2, 1), Ops: []ProcOp{{OpRead, 1}}},
			},
		}, nil
	case "sb-writeonce-race":
		// The single-bus baseline's classic write-once race: both
		// processors load the line Valid, then both write. One
		// write-through wins the bus and invalidates the other's copy,
		// whose now-void write-through must retry as a write miss.
		return Scenario{
			Name: name, SingleBus: true,
			Procs: []Proc{
				{Ops: []ProcOp{{OpRead, 0}, {OpWrite, 0}, {OpRead, 0}}},
				{Ops: []ProcOp{{OpRead, 0}, {OpWrite, 0}}},
			},
		}, nil
	case "sb-victim-race":
		// Distilled from a swarm catch (seed 9006): with a two-line
		// direct-mapped cache, lines 1 and 3 collide, so the writer's
		// second write victimizes its dirty line 1 into the write-back
		// buffer. The reader's READ(1) can win arbitration ahead of the
		// queued WRITE-BACK — the buffer must answer the probe or the
		// reader caches a stale block that disagrees with memory the
		// moment the flush lands.
		return Scenario{
			Name: name, SingleBus: true,
			CacheLines: 2, CacheAssoc: 1,
			Procs: []Proc{
				{Ops: []ProcOp{{OpWrite, 1}, {OpWrite, 3}}},
				{Ops: []ProcOp{{OpRead, 1}}},
			},
		}, nil
	case "sb-mesi-race":
		// The write-once race program under the MESI snooper. The first
		// reader to miss installs Exclusive (nobody else holds the line),
		// the second is forced down to Shared by the sharers wire, and
		// the winning write-through leaves Modified instead of Reserved —
		// the loser's void write-through still retries as a write miss.
		return Scenario{
			Name: name, SingleBus: true, Protocol: singlebus.ProtocolMESI,
			Procs: []Proc{
				{Ops: []ProcOp{{OpRead, 0}, {OpWrite, 0}, {OpRead, 0}}},
				{Ops: []ProcOp{{OpRead, 0}, {OpWrite, 0}}},
			},
		}, nil
	case "sb-mesi-victim-race":
		// sb-victim-race under MESI: the victimized line is Modified via
		// the silent Exclusive upgrade (no write-through ever hit the
		// bus), so the write-back buffer snoop is exercised on a line
		// whose only bus history is the original read miss.
		return Scenario{
			Name: name, SingleBus: true, Protocol: singlebus.ProtocolMESI,
			CacheLines: 2, CacheAssoc: 1,
			Procs: []Proc{
				{Ops: []ProcOp{{OpWrite, 1}, {OpWrite, 3}}},
				{Ops: []ProcOp{{OpRead, 1}}},
			},
		}, nil
	case "tas-contention":
		// Three processors fight over one lock line with bare test-and-set
		// tries, one of them reading the line first so a shared copy is in
		// play when the first grant's purge broadcast arrives. Covers the
		// TAS decision tree at the modified holder — grant vs. fail over
		// every route (same row, same column, remote via the intersection
		// controller) — plus the REPLY|FAIL notification forwarding and
		// the purge relays of memory's REPLY|PURGE grant.
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpTAS, 0}, {OpUnlock, 0}}},
				{At: c(1, 1), Ops: []ProcOp{{OpRead, 0}, {OpTAS, 0}, {OpUnlock, 0}}},
				{At: c(1, 0), Ops: []ProcOp{{OpTAS, 0}}},
			},
		}, nil
	case "wb-locked":
		// Explicit write-backs, including one of a line whose lock word is
		// set: the holder acquires the lock, writes line 1 (homed on the
		// other column, so the memory update crosses the row bus), then
		// writes both lines back. A test-and-set racing the write-back can
		// find the lock set in memory with no cached copy anywhere — the
		// memory-generated REPLY|FAIL that travels the home column and is
		// forwarded across the requester's row. Lock tries only (a SYNC
		// would be admitted to a queue no release ever drains).
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpWrite, 1}, {OpTAS, 0}, {OpWriteBack, 1}, {OpWriteBack, 0}}},
				{At: c(1, 1), Ops: []ProcOp{{OpTAS, 0}}},
				{At: c(1, 0), Ops: []ProcOp{{OpTAS, 0}}},
			},
		}, nil
	case "sync-fail":
		// Section 4's degenerate fallback, reached deterministically: one
		// off-home-column processor acquires the lock remotely, writes the
		// line back with the lock word still set, then SYNCs on it. With
		// the modified-line-table entry gone, memory answers the SYNC
		// itself — REPLY|FAIL down the home column, forwarded across the
		// requester's row — and the processor falls back to spinning
		// (MustSpin). The unlock then finds the line degenerated to shared
		// and releases in software with an ordinary write.
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(1, 1), Ops: []ProcOp{{OpTAS, 0}, {OpWriteBack, 0}, {OpSync, 0}, {OpUnlock, 0}}},
			},
		}, nil
	case "read-snarf":
		// The Section 3 snarf: a writer purges two readers' shared copies,
		// leaving retained invalid tags; when either reader refetches, the
		// reply passing the other on a shared bus is captured in flight.
		// The reader on the writer's row exercises the row-bus serve from
		// a non-home holder (REPLY, UPDATE), the cross-grid reader the
		// column-bus reply relays.
		return Scenario{
			Name: name, N: 2, Snarf: true,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpRead, 0}, {OpRead, 0}}},
				{At: c(1, 1), Ops: []ProcOp{{OpWrite, 0}, {OpRead, 0}}},
				{At: c(1, 0), Ops: []ProcOp{{OpRead, 0}, {OpRead, 0}}},
			},
		}, nil
	case "readmod-row-pair":
		// Two writers on one row race ownership of a line homed on the
		// first writer's column: the loser's READMOD is served by the
		// winner over their shared row bus (REPLY without PURGE), the
		// direct row-bus ownership installation that the cross-grid races
		// never take.
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpWrite, 2}, {OpRead, 2}}},
				{At: c(0, 1), Ops: []ProcOp{{OpWrite, 2}, {OpRead, 2}}},
			},
		}, nil
	case "sync-col-queue":
		// A SYNC queue whose head and admitted tail share a column, with
		// a third party probing the same lock line: the head (modified
		// with its link word set) must stay silent for every transaction
		// — surrendering the line to a READ or a lock try would strand
		// the queued waiter — so requests bounce off the reserved tail
		// and retry until the handoff drains the queue. The third party
		// releases whatever it wins (UNLOCK is a no-op after a failed
		// try), so every acquisition drains and no waiter starves.
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
				{At: c(1, 0), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
				{At: c(1, 1), Ops: []ProcOp{{OpTAS, 0}, {OpUnlock, 0}, {OpRead, 0}}},
			},
		}, nil
	case "read-col-pair":
		// A reader shares a column with a modified holder while the line
		// is homed elsewhere: the holder's serve travels their common
		// column bus (READ REPLY, UPDATE — the no-MEMORY form), the
		// originator installs directly off it and relays the memory
		// update over its own row bus toward the home column (READ,
		// UPDATE, then UPDATE|MEMORY on the home column bus).
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpWrite, 1}}},
				{At: c(1, 0), Ops: []ProcOp{{OpRead, 1}}},
			},
		}, nil
	case "tas-purge-remote":
		// A test-and-set that memory grants (line unmodified, lock free)
		// to a requester off the home column: the REPLY|PURGE runs down
		// the home column, where the intersection controller purges its
		// own shared copy as it forwards (purge-shared-forward), then
		// crosses the requester's row, purging the sharer there — or
		// passing it as an invalid bystander when its read lost the race.
		return Scenario{
			Name: name, N: 3,
			Procs: []Proc{
				{At: c(1, 0), Ops: []ProcOp{{OpRead, 0}}},
				{At: c(1, 1), Ops: []ProcOp{{OpRead, 0}}},
				{At: c(1, 2), Ops: []ProcOp{{OpTAS, 0}, {OpUnlock, 0}}},
			},
		}, nil
	case "sync-purge-remote":
		// The SYNC twin of tas-purge-remote: memory grants a SYNC on an
		// unmodified lock-free line exactly like a test-and-set (Section
		// 4), so the REPLY|PURGE crosses the requester's row and purges
		// the sharers encountered there — the row-bus purge leg of the
		// SYNC transaction.
		return Scenario{
			Name: name, N: 3,
			Procs: []Proc{
				{At: c(1, 0), Ops: []ProcOp{{OpRead, 0}}},
				{At: c(1, 1), Ops: []ProcOp{{OpRead, 0}}},
				{At: c(1, 2), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
			},
		}, nil
	case "snarf-serve-row":
		// A home-column holder serves a row READ while purged bystanders
		// retain their invalid tags: the end node and the column node
		// read line 1 first, then the home-column node takes ownership
		// (purging both) and writes the line back. When the last reader
		// finally asks, the home node serves from its shared copy over
		// the row bus (plain REPLY) and the purged end node captures the
		// passing line — the Section 3 snarf on a row; in the
		// interleavings where the read beats the write-back, the serve
		// comes from the modified home holder instead and its column-bus
		// REPLY|UPDATE|MEMORY passes the purged column node.
		return Scenario{
			Name: name, N: 3, Snarf: true,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpRead, 1}}},
				{At: c(0, 1), Ops: []ProcOp{{OpWrite, 1}, {OpWriteBack, 1}}},
				{At: c(0, 2), Ops: []ProcOp{{OpRead, 1}}},
				{At: c(2, 1), Ops: []ProcOp{{OpRead, 1}}},
			},
		}, nil
	case "wb-steal":
		// An explicit write-back racing a competing ownership claim that
		// succeeds: when the READMOD's REQUEST|REMOVE drains ahead of
		// the WRITEBACK|REMOVE, the claim serves from the holder and
		// carries the line away, so the write-back's own remove finds
		// the entry gone and the line no longer modified — nothing left
		// to write (wb-lost-entry). In the opposite order the write-back
		// lands first and the claim falls through to memory.
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpWrite, 0}, {OpWriteBack, 0}, {OpRead, 0}}},
				{At: c(1, 1), Ops: []ProcOp{{OpWrite, 0}, {OpRead, 0}}},
			},
		}, nil
	case "sync-tail-row":
		// sync-col-queue distilled to its lock traffic (no trailing
		// read), so it exhausts comfortably inside the conformance
		// budget: the admitted tail fails the third party's test-and-set
		// over their shared row bus (tail-fail-row) in every
		// interleaving where the queue is live when the try lands.
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
				{At: c(1, 0), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
				{At: c(1, 1), Ops: []ProcOp{{OpTAS, 0}, {OpUnlock, 0}}},
			},
		}, nil
	case "sync-tail-remote":
		// The remote variant: the third party shares neither row nor
		// column with the admitted tail, so the tail's failure
		// notification routes via the intersection controller
		// (tail-fail-remote). The try's claim is made by the queue head
		// itself — the controller on the originator's row holding the
		// column's table replica.
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
				{At: c(1, 0), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
				{At: c(0, 1), Ops: []ProcOp{{OpTAS, 0}, {OpUnlock, 0}}},
			},
		}, nil
	case "sync-col-3x3":
		// A SYNC queue on a 3×3 column with a third contender below it:
		// head and admitted tail sit on rows 0 and 1 of column 0, and
		// the row-2 node's test-and-set reaches the tail over their
		// shared column bus from off the tail's row — the column-bus
		// fail route (tail-fail-col). Every acquisition pairs with an
		// unlock, so the queue always drains and no waiter starves.
		return Scenario{
			Name: name, N: 3,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
				{At: c(1, 0), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
				{At: c(2, 0), Ops: []ProcOp{{OpTAS, 0}, {OpUnlock, 0}}},
			},
		}, nil
	case "readmod-col-pair":
		// Two writers sharing a column race ownership of a line homed on
		// that same column: the loser's READMOD reaches the winner over
		// their shared column bus and the ownership moves directly on it
		// (REPLY, INSERT) — no row-bus leg at all.
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpWrite, 2}, {OpRead, 2}}},
				{At: c(1, 0), Ops: []ProcOp{{OpWrite, 2}, {OpRead, 2}}},
			},
		}, nil
	case "snarf-row-3x3":
		// Snarfing on a 3×3 row: three caches on row 0 share line 1,
		// whose home column is the middle one, while both end nodes also
		// write it. Serves from a non-home holder to a non-home requester
		// cross the row bus directly (REPLY, UPDATE), the home-column
		// node in between updating memory — or, with its copy purged and
		// the tag retained, capturing the passing line (Section 3 snarf).
		return Scenario{
			Name: name, N: 3, Snarf: true,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpWrite, 1}, {OpRead, 1}}},
				{At: c(0, 1), Ops: []ProcOp{{OpRead, 1}, {OpRead, 1}}},
				{At: c(0, 2), Ops: []ProcOp{{OpRead, 1}, {OpWrite, 1}, {OpRead, 1}}},
			},
		}, nil
	case "sync-read-mix":
		// A SYNC queue on a lock line with a plain reader in the mix: the
		// reader's READ can catch the queue mid-handoff — bounced by a
		// reserved tail (restore the table entry and retransmit), deferred
		// to a same-column holder, or orphaned entirely when the entry's
		// remove wins against an unadmitted joiner (the revival idiom).
		// The reader's shared copy also puts the SYNC grant's purge
		// broadcast to work.
		return Scenario{
			Name: name, N: 2,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
				{At: c(1, 1), Ops: []ProcOp{{OpSync, 0}, {OpUnlock, 0}}},
				{At: c(1, 0), Ops: []ProcOp{{OpRead, 0}}},
			},
		}, nil
	case "stale-shared-mp":
		// The real cross-address SC window of the untimed interpretation:
		// the reader's first read of line 1 caches a Shared copy; the
		// writer's READMOD purge for that copy travels via line 1's home
		// column and is re-broadcast on the reader's row by node (0,1) as
		// a separate delayed bus operation. Placement is what opens the
		// window: the writer sits at (1,0), on line 2's home column and on
		// the READER's column, so its ownership reply for line 2 reaches
		// the reader directly over column 0 — never passing through
		// (0,1)'s row-bus source FIFO, which would have forced the line-1
		// purge out first. The reader thus observes the writer's LATER
		// write to line 2 and then still hits its stale Shared copy of
		// line 1 — an MP-shaped violation no single total order explains.
		// (With the writer at (1,1) instead, every line-2 reply funnels
		// through (0,1) behind the queued purge and the window provably
		// never opens.) Per-address coherence holds throughout; only the
		// CheckSC search catches it.
		return Scenario{
			Name: name, N: 2, CheckSC: true,
			Procs: []Proc{
				{At: c(0, 0), Ops: []ProcOp{{OpRead, 1}, {OpRead, 2}, {OpRead, 1}}},
				{At: c(1, 0), Ops: []ProcOp{{OpWrite, 1}, {OpWrite, 2}}},
			},
		}, nil
	default:
		if sc, ok := litmusPreset(name); ok {
			return sc, nil
		}
		return Scenario{}, fmt.Errorf("mc: unknown preset %q (have %v)", name, Presets())
	}
}
