package coherence

import (
	"strings"
	"testing"

	"multicube/internal/cache"
	"multicube/internal/memory"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// testSystem builds an n×n machine with unbounded caches and tables
// unless overridden.
func testSystem(t *testing.T, n int, mutate ...func(*Config)) (*sim.Kernel, *System) {
	t.Helper()
	k := sim.NewKernel()
	cfg := Config{N: n, BlockWords: 4}
	for _, m := range mutate {
		m(&cfg)
	}
	s, err := NewSystem(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, s
}

func at(r, c int) topology.Coord { return topology.Coord{Row: r, Col: c} }

// do runs one transaction to completion and drains the machine.
func do(t *testing.T, k *sim.Kernel, start func(done func(Result))) Result {
	t.Helper()
	var res Result
	completed := false
	start(func(r Result) { res = r; completed = true })
	k.Run()
	if !completed {
		t.Fatal("transaction did not complete")
	}
	return res
}

// checkQuiet asserts quiescent invariants.
func checkQuiet(t *testing.T, s *System) {
	t.Helper()
	for _, err := range CheckInvariants(s) {
		t.Errorf("invariant: %v", err)
	}
	if s.StrayReplies() != 0 {
		t.Errorf("stray replies: %d", s.StrayReplies())
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewSystem(k, Config{N: 1}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := NewSystem(k, Config{N: 4, BlockWords: 1}); err == nil {
		t.Error("1-word blocks accepted")
	}
	// A set of positions along a bus, and of columns holding a line in the
	// modified line tables, is one word.
	if _, err := NewSystem(k, Config{N: 65}); err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Errorf("N=65: error %v, want one naming the limit of 64", err)
	}
	s, err := NewSystem(k, Config{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().BlockWords != 16 {
		t.Errorf("default block size = %d, want 16", s.Config().BlockWords)
	}
}

func TestReadMissUnmodified(t *testing.T) {
	k, s := testSystem(t, 4)
	// Line 2 has home column 2; requester at (0,0) is neither on the home
	// column nor holding anything.
	line := cache.Line(2)
	s.MemoryAt(2).Store().Write(memory.Line(line), []uint64{10, 20, 30, 40})

	nd := s.Node(at(0, 0))
	res := do(t, k, func(done func(Result)) { nd.Read(line, done) })

	e, ok := nd.Cache().Lookup(line)
	if !ok || e.State != Shared {
		t.Fatalf("line not shared after read: ok=%v", ok)
	}
	if e.Data[1] != 20 {
		t.Errorf("data[1] = %d, want 20", e.Data[1])
	}
	// Row request, column request to memory, column reply, row reply.
	if res.Trace.RowOps != 2 || res.Trace.ColOps != 2 {
		t.Errorf("ops = %d row, %d col; want 2,2", res.Trace.RowOps, res.Trace.ColOps)
	}
	checkQuiet(t, s)
}

func TestReadMissOriginOnHomeColumn(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(1) // home column 1
	nd := s.Node(at(2, 1))
	res := do(t, k, func(done func(Result)) { nd.Read(line, done) })
	// Origin forwards to memory itself and picks the column reply up
	// directly: 1 row + 2 column ops.
	if res.Trace.RowOps != 1 || res.Trace.ColOps != 2 {
		t.Errorf("ops = %d row, %d col; want 1,2", res.Trace.RowOps, res.Trace.ColOps)
	}
	checkQuiet(t, s)
}

func TestReadServedByHomeColumnCache(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(1)
	// Prime (0,1) — on line 1's home column — with a shared copy.
	holder := s.Node(at(0, 1))
	do(t, k, func(done func(Result)) { holder.Read(line, done) })

	// A read from (0,3), same row as the primed home-column controller:
	// it serves the data from its cache with a single row reply.
	res := do(t, k, func(done func(Result)) { s.Node(at(0, 3)).Read(line, done) })
	if res.Trace.RowOps != 2 || res.Trace.ColOps != 0 {
		t.Errorf("ops = %d row, %d col; want 2,0", res.Trace.RowOps, res.Trace.ColOps)
	}
	checkQuiet(t, s)
}

func TestWriteMissUnmodifiedNoCopies(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(3) // home column 3
	nd := s.Node(at(1, 0))
	do(t, k, func(done func(Result)) { nd.Write(line, done) })

	e, ok := nd.Cache().Lookup(line)
	if !ok || e.State != Modified {
		t.Fatalf("line not modified after write")
	}
	e.Data[0] = 77 // the processor's store

	// Memory must now be invalid and column 0's MLT must know.
	if s.MemoryAt(3).Store().Valid(memory.Line(line)) {
		t.Error("memory still valid after READMOD")
	}
	if !s.MLT().Contains(0, 3) {
		t.Error("column 0's MLT missing entry")
	}
	checkQuiet(t, s)
}

func TestReadOfModifiedLineRemote(t *testing.T) {
	// Holder and reader in different rows and columns, line's home column
	// a third column: the full five-operation path.
	k, s := testSystem(t, 4)
	line := cache.Line(2) // home column 2
	holder := s.Node(at(0, 0))
	do(t, k, func(done func(Result)) { holder.Write(line, done) })
	holder.CacheEntry(line).Data[1] = 55

	reader := s.Node(at(3, 3))
	res := do(t, k, func(done func(Result)) { reader.Read(line, done) })

	e, ok := reader.Cache().Lookup(line)
	if !ok || e.State != Shared || e.Data[1] != 55 {
		t.Fatalf("reader state/data wrong: ok=%v", ok)
	}
	he, ok := holder.Cache().Lookup(line)
	if !ok || he.State != Shared {
		t.Fatalf("holder not downgraded to shared")
	}
	// Memory was updated and revalidated.
	mem := s.MemoryAt(2).Store()
	if !mem.Valid(memory.Line(line)) || mem.Peek(memory.Line(line))[1] != 55 {
		t.Error("memory not updated")
	}
	// The MLT entry in the holder's column is gone.
	if s.MLT().Contains(0, 2) {
		t.Error("stale MLT entry in column 0")
	}
	if res.Trace.Ops() == 0 {
		t.Error("no ops traced")
	}
	checkQuiet(t, s)
}

func TestReadOfModifiedLineGeometries(t *testing.T) {
	// Sweep every (holder, reader) pair on a 3×3 grid for one line and
	// check data delivery plus invariants. Covers holder-on-home-column,
	// same-row, same-column and fully-remote routing branches.
	line := cache.Line(1) // home column 1
	for hr := 0; hr < 3; hr++ {
		for hc := 0; hc < 3; hc++ {
			for rr := 0; rr < 3; rr++ {
				for rc := 0; rc < 3; rc++ {
					if hr == rr && hc == rc {
						continue
					}
					k, s := testSystem(t, 3)
					holder := s.Node(at(hr, hc))
					do(t, k, func(done func(Result)) { holder.Write(line, done) })
					holder.CacheEntry(line).Data[2] = 99

					reader := s.Node(at(rr, rc))
					do(t, k, func(done func(Result)) { reader.Read(line, done) })
					e, ok := reader.Cache().Lookup(line)
					if !ok || e.Data[2] != 99 {
						t.Fatalf("holder (%d,%d) reader (%d,%d): data not delivered", hr, hc, rr, rc)
					}
					checkQuiet(t, s)
				}
			}
		}
	}
}

func TestReadModOfModifiedLineGeometries(t *testing.T) {
	line := cache.Line(0) // home column 0
	for hr := 0; hr < 3; hr++ {
		for hc := 0; hc < 3; hc++ {
			for rr := 0; rr < 3; rr++ {
				for rc := 0; rc < 3; rc++ {
					if hr == rr && hc == rc {
						continue
					}
					k, s := testSystem(t, 3)
					holder := s.Node(at(hr, hc))
					do(t, k, func(done func(Result)) { holder.Write(line, done) })
					holder.CacheEntry(line).Data[3] = 42

					writer := s.Node(at(rr, rc))
					do(t, k, func(done func(Result)) { writer.Write(line, done) })
					e, ok := writer.Cache().Lookup(line)
					if !ok || e.State != Modified || e.Data[3] != 42 {
						t.Fatalf("holder (%d,%d) writer (%d,%d): ownership not moved", hr, hc, rr, rc)
					}
					if _, ok := holder.Cache().Lookup(line); ok {
						t.Fatalf("holder (%d,%d) still has a copy", hr, hc)
					}
					// Memory was NOT updated (Section 3: "Note also that
					// main memory is not updated").
					if s.MemoryAt(0).Store().Valid(memory.Line(line)) {
						t.Fatal("memory became valid during ownership transfer")
					}
					checkQuiet(t, s)
				}
			}
		}
	}
}

func TestInvalidationBroadcastPurgesAllSharers(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(2)
	s.MemoryAt(2).Store().Write(memory.Line(line), []uint64{1, 2, 3, 4})

	// Spread shared copies across rows and columns.
	sharers := []topology.Coord{at(0, 0), at(1, 3), at(2, 2), at(3, 1)}
	for _, c := range sharers {
		nd := s.Node(c)
		do(t, k, func(done func(Result)) { nd.Read(line, done) })
	}
	// A writer that also held a shared copy upgrades.
	writer := s.Node(at(0, 0))
	res := do(t, k, func(done func(Result)) { writer.Write(line, done) })

	for _, c := range sharers[1:] {
		if _, ok := s.Node(c).Cache().Lookup(line); ok {
			t.Errorf("sharer %v not purged", c)
		}
	}
	e, ok := writer.Cache().Lookup(line)
	if !ok || e.State != Modified || e.Data[3] != 4 {
		t.Fatal("writer did not obtain modified line with data")
	}
	// The broadcast costs n+1 row ops and 3 column ops (Section 6):
	// 1 request + n purge-carrying row ops, plus request/reply/insert
	// columns.
	if res.Trace.RowOps != 5 || res.Trace.ColOps != 3 {
		t.Errorf("broadcast ops = %d row, %d col; want 5,3", res.Trace.RowOps, res.Trace.ColOps)
	}
	checkQuiet(t, s)
}

func TestReadModNoStaleDataAfterUpgradeRace(t *testing.T) {
	// Two nodes hold the line shared; both upgrade simultaneously. One
	// wins at memory, the loser's request chases the line and wins
	// ownership next; the final holder must be the loser with a single
	// modified copy.
	k, s := testSystem(t, 4)
	line := cache.Line(1)
	s.MemoryAt(1).Store().Write(memory.Line(line), []uint64{7, 7, 7, 7})
	a, b := s.Node(at(0, 0)), s.Node(at(2, 3))
	for _, nd := range []*Node{a, b} {
		nd := nd
		do(t, k, func(done func(Result)) { nd.Read(line, done) })
	}
	doneA, doneB := false, false
	a.Write(line, func(Result) { doneA = true })
	b.Write(line, func(Result) { doneB = true })
	k.Run()
	if !doneA || !doneB {
		t.Fatalf("upgrades incomplete: a=%v b=%v", doneA, doneB)
	}
	mod := 0
	for _, nd := range []*Node{a, b} {
		if e, ok := nd.Cache().Lookup(line); ok && e.State == Modified {
			mod++
			if e.Data[0] != 7 {
				t.Errorf("winner data = %d, want 7", e.Data[0])
			}
		}
	}
	if mod != 1 {
		t.Fatalf("%d modified copies after race", mod)
	}
	checkQuiet(t, s)
}

func TestConcurrentReadAndWriteRace(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(3)
	holder := s.Node(at(1, 1))
	do(t, k, func(done func(Result)) { holder.Write(line, done) })
	holder.CacheEntry(line).Data[0] = 123

	var got uint64
	reader, writer := s.Node(at(0, 2)), s.Node(at(3, 0))
	readerDone, writerDone := false, false
	reader.Read(line, func(Result) {
		readerDone = true
		got = reader.CacheEntry(line).Data[0]
	})
	writer.Write(line, func(Result) {
		writerDone = true
		writer.CacheEntry(line).Data[0] = 456
	})
	k.Run()
	if !readerDone || !writerDone {
		t.Fatalf("race incomplete: read=%v write=%v", readerDone, writerDone)
	}
	if got != 123 && got != 456 {
		t.Errorf("reader saw %d, want 123 or 456", got)
	}
	checkQuiet(t, s)
}

func TestVictimWritebackOnCapacityMiss(t *testing.T) {
	// A 1-set, 2-way cache: a third line forces a modified victim out.
	k, s := testSystem(t, 4, func(c *Config) {
		c.CacheLines = 2
		c.CacheAssoc = 2
	})
	nd := s.Node(at(0, 0))
	l1, l2, l3 := cache.Line(0), cache.Line(1), cache.Line(2)
	do(t, k, func(done func(Result)) { nd.Write(l1, done) })
	nd.CacheEntry(l1).Data[0] = 11
	do(t, k, func(done func(Result)) { nd.Write(l2, done) })
	do(t, k, func(done func(Result)) { nd.Read(l3, done) })

	// l1 was LRU and modified: it must have been written back.
	mem := s.MemoryAt(0).Store()
	if !mem.Valid(memory.Line(l1)) || mem.Peek(memory.Line(l1))[0] != 11 {
		t.Error("victim not written back to memory")
	}
	if _, ok := nd.Cache().Lookup(l1); ok {
		t.Error("victim still resident")
	}
	checkQuiet(t, s)
}

func TestExplicitWriteBack(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(2)
	nd := s.Node(at(1, 0))
	do(t, k, func(done func(Result)) { nd.Write(line, done) })
	nd.CacheEntry(line).Data[2] = 9

	do(t, k, func(done func(Result)) { nd.WriteBack(line, done) })
	e, ok := nd.Cache().Lookup(line)
	if !ok || e.State != Shared {
		t.Fatal("line not shared after writeback")
	}
	mem := s.MemoryAt(2).Store()
	if !mem.Valid(memory.Line(line)) || mem.Peek(memory.Line(line))[2] != 9 {
		t.Error("memory not updated by writeback")
	}
	// Writing back an unmodified line completes immediately.
	do(t, k, func(done func(Result)) { nd.WriteBack(line, done) })
	checkQuiet(t, s)
}

func TestMLTOverflowForcesWriteback(t *testing.T) {
	// MLT holds 2 entries; writing 3 lines from the same column (all
	// mapping to distinct lines) must push one line back to unmodified.
	k, s := testSystem(t, 4, func(c *Config) {
		c.MLTEntries = 2
		c.MLTAssoc = 1 // direct-mapped: lines 0 and 2 collide in set 0
	})
	nd := s.Node(at(0, 0))
	do(t, k, func(done func(Result)) { nd.Write(cache.Line(0), done) })
	nd.CacheEntry(0).Data[0] = 5
	do(t, k, func(done func(Result)) { nd.Write(cache.Line(2), done) })

	// Line 0's entry overflowed: its data must be back in memory and the
	// cache copy downgraded to shared.
	e, ok := nd.Cache().Lookup(0)
	if !ok || e.State != Shared {
		t.Fatalf("overflow line not shared: ok=%v", ok)
	}
	mem := s.MemoryAt(0).Store()
	if !mem.Valid(0) || mem.Peek(0)[0] != 5 {
		t.Error("overflow line not written back")
	}
	checkQuiet(t, s)
}

func TestAllocateReturnsAckNotData(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(1)
	s.MemoryAt(1).Store().Write(memory.Line(line), []uint64{9, 9, 9, 9})
	nd := s.Node(at(2, 2))
	do(t, k, func(done func(Result)) { nd.Allocate(line, done) })

	e, ok := nd.Cache().Lookup(line)
	if !ok || e.State != Modified {
		t.Fatal("allocate did not obtain modified line")
	}
	for i, w := range e.Data {
		if w != 0 {
			t.Errorf("allocate delivered old data word %d = %d", i, w)
		}
	}
	if s.MemoryAt(1).Store().Valid(memory.Line(line)) {
		t.Error("memory still valid after allocate")
	}
	checkQuiet(t, s)
}

func TestAllocateOfModifiedLine(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(0)
	holder := s.Node(at(0, 1))
	do(t, k, func(done func(Result)) { holder.Write(line, done) })
	holder.CacheEntry(line).Data[0] = 31

	alloc := s.Node(at(3, 3))
	do(t, k, func(done func(Result)) { alloc.Allocate(line, done) })
	e, ok := alloc.Cache().Lookup(line)
	if !ok || e.State != Modified || e.Data[0] != 0 {
		t.Fatal("allocate from modified holder failed")
	}
	if _, ok := holder.Cache().Lookup(line); ok {
		t.Error("old holder kept a copy")
	}
	checkQuiet(t, s)
}

func TestSnarfRefreshesRetainedTag(t *testing.T) {
	k, s := testSystem(t, 4, func(c *Config) { c.Snarf = true })
	line := cache.Line(2)
	s.MemoryAt(2).Store().Write(memory.Line(line), []uint64{4, 4, 4, 4})

	// bystander once held the line, then lost it to an invalidation.
	bystander := s.Node(at(0, 1))
	do(t, k, func(done func(Result)) { bystander.Read(line, done) })
	writer := s.Node(at(2, 2))
	do(t, k, func(done func(Result)) { writer.Write(line, done) })
	writer.CacheEntry(line).Data[0] = 8
	if _, ok := bystander.Cache().Lookup(line); ok {
		t.Fatal("bystander not invalidated")
	}

	// A read by the bystander's row neighbour moves the line across row 0;
	// the bystander snarfs it in shared mode.
	reader := s.Node(at(0, 3))
	do(t, k, func(done func(Result)) { reader.Read(line, done) })
	e, ok := bystander.Cache().Lookup(line)
	if !ok || e.State != Shared || e.Data[0] != 8 {
		t.Fatalf("bystander did not snarf: ok=%v", ok)
	}
	if bystander.Cache().Stats().Snarfs != 1 {
		t.Errorf("snarfs = %d, want 1", bystander.Cache().Stats().Snarfs)
	}
	checkQuiet(t, s)
}

func TestMemoryReissueOnInvalidLine(t *testing.T) {
	// Force the robustness path: a request routed to memory for an
	// invalid line is retransmitted as a request for modified data.
	k, s := testSystem(t, 4)
	line := cache.Line(1)
	holder := s.Node(at(0, 0))
	do(t, k, func(done func(Result)) { holder.Write(line, done) })
	holder.CacheEntry(line).Data[0] = 66

	// Manually wipe column 0's MLT entry to simulate the inconsistent
	// window ("a controller can, on occasion, simply discard such
	// requests").
	s.MLT().Remove(0, 1)
	reader := s.Node(at(2, 2))
	doneCh := false
	reader.Read(line, func(Result) { doneCh = true })
	// Restore the entries while the request is in flight so the reissued
	// request can find the line.
	k.After(100, func() { s.MLT().Insert(0, 1) })
	k.Run()
	if !doneCh {
		t.Fatal("read never completed through the reissue path")
	}
	if s.MemoryAt(1).Store().Stats().Reissues == 0 {
		t.Error("memory never reissued")
	}
	e, ok := reader.Cache().Lookup(line)
	if !ok || e.Data[0] != 66 {
		t.Error("reissued read returned wrong data")
	}
	checkQuiet(t, s)
}
