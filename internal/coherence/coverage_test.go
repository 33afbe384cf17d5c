package coherence

import (
	"strings"
	"testing"

	"multicube/internal/cache"
	"multicube/internal/sim"
)

func TestBounceOffReservedTail(t *testing.T) {
	// A plain READ routed to a column whose only copy is an admitted
	// queue tail's reserved placeholder: the data is at the head in a
	// different column, so the tail bounces the request, which keeps
	// retrying until the queue drains and a modified copy exists.
	k, s := testSystem(t, 4)
	line := cache.Line(0)
	head := s.Node(at(0, 1))
	do(t, k, func(done func(Result)) { head.SyncAcquire(line, done) })
	tail := s.Node(at(2, 2))
	tail.SyncAcquire(line, func(r Result) {
		if !r.Acquired {
			t.Errorf("tail acquire: %+v", r)
		}
	})
	k.Run() // tail admitted; MLT points at column 2

	readerDone := false
	reader := s.Node(at(3, 0))
	reader.Read(line, func(Result) { readerDone = true })
	// Let the read bounce for a while before the queue drains.
	k.RunUntil(k.Now() + 50*sim.Microsecond)
	if readerDone {
		t.Fatal("read completed while the line was queue-reserved")
	}
	if tail.Stats().Deferred == 0 {
		t.Error("reserved tail never bounced the read")
	}
	// Drain: head hands off to tail; tail releases; the read then serves.
	if !head.SyncRelease(line) {
		t.Fatal("head release degenerated")
	}
	k.Run()
	// The bounced READ races the handoff: the moment the tail holds the
	// line modified, the retry serves — downgrading the lock line to
	// shared while the tail still logically holds the lock. Release then
	// degenerates exactly as Section 4 describes, and the tail clears
	// the lock word in software.
	if !tail.SyncRelease(line) {
		done := false
		tail.Write(line, func(Result) {
			tail.CacheEntry(line).Data[LockWord] = 0
			done = true
		})
		k.Run()
		if !done {
			t.Fatal("software release never completed")
		}
	} else {
		k.Run()
	}
	if !readerDone {
		t.Fatal("read never completed after the queue drained")
	}
	checkQuiet(t, s)
}

func TestAllocateUpgradeFromShared(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(2)
	s.MemoryAt(2).Store().Write(2, []uint64{9, 9, 9, 9})
	nd := s.Node(at(1, 1))
	do(t, k, func(done func(Result)) { nd.Read(line, done) }) // shared copy
	do(t, k, func(done func(Result)) { nd.Allocate(line, done) })
	e, ok := nd.Cache().Lookup(line)
	if !ok || e.State != Modified || e.Data[0] != 0 {
		t.Fatal("allocate upgrade failed")
	}
	// Allocate on an already-modified line completes locally.
	before := k.Executed()
	do(t, k, func(done func(Result)) { nd.Allocate(line, done) })
	if k.Executed() != before {
		t.Error("local allocate used events")
	}
	checkQuiet(t, s)
}

func TestStringersAndAccessors(t *testing.T) {
	if READ.String() != "READ" || Txn(99).String() == "" {
		t.Error("Txn.String")
	}
	f := REQUEST | REMOVE
	if !strings.Contains(f.String(), "REQUEST") || !strings.Contains(f.String(), "REMOVE") {
		t.Errorf("Flags.String = %q", f.String())
	}
	if Flags(0).String() != "0" {
		t.Errorf("zero flags = %q", Flags(0).String())
	}
	if Row.String() != "ROW" || Col.String() != "COLUMN" {
		t.Error("Dim.String")
	}
	if StateName(Shared) != "shared" || StateName(cache.State(9)) == "" {
		t.Error("StateName")
	}
	var st TxnStats
	if st.MeanLatency() != 0 || st.MeanOps() != 0 {
		t.Error("zero TxnStats means")
	}
	st = TxnStats{Count: 2, TotalLatency: 10, RowOps: 3, ColOps: 1}
	if st.MeanLatency() != 5 || st.MeanOps() != 2 {
		t.Error("TxnStats means")
	}
	k, s := testSystem(t, 2)
	_ = k
	nd := s.Node(at(0, 1))
	if nd.ID() != at(0, 1) || nd.Busy() {
		t.Error("node accessors")
	}
	if s.MemoryAt(1).Column() != 1 {
		t.Error("memory column")
	}
	op := s.addrOp(READ, REQUEST, at(0, 0), 1, nil)
	if op.Trace() != nil || !strings.Contains(op.String(), "READ") {
		t.Error("op accessors")
	}
	if MustNewSystem(sim.NewKernel(), Config{N: 2, BlockWords: 4}) == nil {
		t.Error("MustNewSystem")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewSystem with bad config did not panic")
		}
	}()
	MustNewSystem(sim.NewKernel(), Config{N: 0})
}
