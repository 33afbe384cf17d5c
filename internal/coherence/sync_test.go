package coherence

import (
	"testing"

	"multicube/internal/cache"
	"multicube/internal/memory"
	topo "multicube/internal/topology"
)

func TestTASAgainstMemorySuccess(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(1)
	nd := s.Node(at(0, 0))
	res := do(t, k, func(done func(Result)) { nd.TestAndSet(line, done) })
	if !res.Acquired {
		t.Fatal("TAS on a free memory line failed")
	}
	e, ok := nd.Cache().Lookup(line)
	if !ok || e.State != Modified || e.Data[LockWord] != 1 {
		t.Fatal("line not held modified with lock set")
	}
	checkQuiet(t, s)
}

func TestTASAgainstMemoryFailure(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(2)
	s.MemoryAt(2).Store().Write(memory.Line(line), []uint64{1, 0, 0, 0}) // lock held
	nd := s.Node(at(1, 1))
	res := do(t, k, func(done func(Result)) { nd.TestAndSet(line, done) })
	if res.Acquired {
		t.Fatal("TAS on a held lock succeeded")
	}
	// Failure returns only the notification: no copy was acquired and
	// memory keeps the line valid.
	if _, ok := nd.Cache().Lookup(line); ok {
		t.Error("failed TAS left a cached copy")
	}
	if !s.MemoryAt(2).Store().Valid(memory.Line(line)) {
		t.Error("failed TAS invalidated memory")
	}
	checkQuiet(t, s)
}

func TestTASRemoteSuccessMovesLine(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(0)
	holder := s.Node(at(0, 1))
	do(t, k, func(done func(Result)) { holder.Write(line, done) })
	// Lock word is zero: the remote TAS succeeds and the line moves.
	taker := s.Node(at(2, 3))
	res := do(t, k, func(done func(Result)) { taker.TestAndSet(line, done) })
	if !res.Acquired {
		t.Fatal("remote TAS on free lock failed")
	}
	e, ok := taker.Cache().Lookup(line)
	if !ok || e.State != Modified || e.Data[LockWord] != 1 {
		t.Fatal("lock line did not move to taker")
	}
	if _, ok := holder.Cache().Lookup(line); ok {
		t.Error("old holder kept the line")
	}
	checkQuiet(t, s)
}

func TestTASRemoteFailureLeavesLine(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(0)
	holder := s.Node(at(0, 1))
	do(t, k, func(done func(Result)) { holder.TestAndSet(line, done) }) // holder takes the lock
	taker := s.Node(at(2, 3))
	res := do(t, k, func(done func(Result)) { taker.TestAndSet(line, done) })
	if res.Acquired {
		t.Fatal("TAS succeeded on a held lock")
	}
	// "On failure, only the notification of failure is returned — the
	// line remains in the remote cache."
	e, ok := holder.Cache().Lookup(line)
	if !ok || e.State != Modified {
		t.Fatal("holder lost the line on a failed TAS")
	}
	// The MLT entry must have been restored so future requests route.
	if !s.MLT().Contains(1, 0) {
		t.Error("column 1's MLT entry not restored")
	}
	checkQuiet(t, s)
}

func TestTASLocalPathsNoBusOps(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(3)
	nd := s.Node(at(0, 0))
	do(t, k, func(done func(Result)) { nd.TestAndSet(line, done) })
	opsBefore := s.RowBus(0).Stats().Ops

	// Second TAS on our own modified line: local failure, no bus ops.
	res := do(t, k, func(done func(Result)) { nd.TestAndSet(line, done) })
	if res.Acquired {
		t.Fatal("local TAS re-acquired a held lock")
	}
	if got := s.RowBus(0).Stats().Ops; got != opsBefore {
		t.Errorf("local TAS used %d bus ops", got-opsBefore)
	}
	// Release locally, reacquire locally.
	nd.CacheEntry(line).Data[LockWord] = 0
	res = do(t, k, func(done func(Result)) { nd.TestAndSet(line, done) })
	if !res.Acquired {
		t.Fatal("local TAS on free held line failed")
	}
	if got := s.RowBus(0).Stats().Ops; got != opsBefore {
		t.Errorf("local TAS used %d bus ops", got-opsBefore)
	}
	checkQuiet(t, s)
}

func TestTASSharedCopyShortCircuitsFailure(t *testing.T) {
	// A coherent shared copy showing the lock held fails without a bus
	// operation (the "test" of test-and-test-and-set in hardware).
	k, s := testSystem(t, 4)
	line := cache.Line(1)
	s.MemoryAt(1).Store().Write(memory.Line(line), []uint64{1, 0, 0, 0})
	nd := s.Node(at(2, 2))
	do(t, k, func(done func(Result)) { nd.Read(line, done) })
	executed := k.Executed()
	res := do(t, k, func(done func(Result)) { nd.TestAndSet(line, done) })
	if res.Acquired {
		t.Fatal("TAS acquired a held lock")
	}
	if k.Executed() != executed {
		t.Errorf("shared-copy fail used %d events", k.Executed()-executed)
	}
	checkQuiet(t, s)
}

func TestSyncAcquireUncontended(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(2)
	nd := s.Node(at(1, 0))
	res := do(t, k, func(done func(Result)) { nd.SyncAcquire(line, done) })
	if !res.Acquired || res.MustSpin {
		t.Fatalf("uncontended sync acquire: %+v", res)
	}
	e, ok := nd.Cache().Lookup(line)
	if !ok || e.State != Modified || e.Data[LockWord] != 1 {
		t.Fatal("lock line not held modified")
	}
	if !e.Pinned {
		t.Error("held lock line not pinned against victimization")
	}
	// Release with no waiters: the line stays, lock word clears, and the
	// pin is lifted.
	if !nd.SyncRelease(line) {
		t.Fatal("release reported degeneration")
	}
	k.Run()
	if e.Data[LockWord] != 0 {
		t.Error("lock word not cleared")
	}
	if e.Pinned {
		t.Error("released idle lock line still pinned")
	}
	checkQuiet(t, s)
}

func TestSyncHandoffFromIdleHolder(t *testing.T) {
	// The lock line sits modified-but-free in one cache; a SYNC join gets
	// it handed over directly.
	k, s := testSystem(t, 4)
	line := cache.Line(0)
	holder := s.Node(at(0, 1))
	do(t, k, func(done func(Result)) { holder.SyncAcquire(line, done) })
	if !holder.SyncRelease(line) {
		t.Fatal("release failed")
	}
	k.Run()

	joiner := s.Node(at(3, 2))
	res := do(t, k, func(done func(Result)) { joiner.SyncAcquire(line, done) })
	if !res.Acquired {
		t.Fatalf("join of idle lock: %+v", res)
	}
	if _, ok := holder.Cache().Lookup(line); ok {
		t.Error("old holder kept the line")
	}
	e, _ := joiner.Cache().Lookup(line)
	if e == nil || e.Data[LockWord] != 1 {
		t.Error("joiner does not hold the lock")
	}
	checkQuiet(t, s)
}

func TestSyncQueueFIFOHandoff(t *testing.T) {
	// Three nodes contend; the queue must deliver the lock in join order
	// with a direct cache-to-cache transfer each time.
	k, s := testSystem(t, 4)
	line := cache.Line(3)
	a := s.Node(at(0, 0))
	b := s.Node(at(1, 2))
	c := s.Node(at(3, 1))

	do(t, k, func(done func(Result)) { a.SyncAcquire(line, done) }) // a holds the lock

	var order []string
	b.SyncAcquire(line, func(r Result) {
		if !r.Acquired {
			t.Errorf("b acquire: %+v", r)
		}
		order = append(order, "b")
	})
	k.Run()
	c.SyncAcquire(line, func(r Result) {
		if !r.Acquired {
			t.Errorf("c acquire: %+v", r)
		}
		order = append(order, "c")
	})
	k.Run()
	if len(order) != 0 {
		t.Fatalf("waiters acquired while lock held: %v", order)
	}
	// b and c are reserved queue members now.
	if e := b.Cache().Probe(line); e == nil || e.State != Reserved {
		t.Fatal("b has no reserved copy")
	}

	if !a.SyncRelease(line) {
		t.Fatal("a release degenerated")
	}
	k.Run()
	if len(order) != 1 || order[0] != "b" {
		t.Fatalf("after a's release, order = %v, want [b]", order)
	}
	if !b.SyncRelease(line) {
		t.Fatal("b release degenerated")
	}
	k.Run()
	if len(order) != 2 || order[1] != "c" {
		t.Fatalf("after b's release, order = %v, want [b c]", order)
	}
	// c holds the lock; release with empty queue.
	if !c.SyncRelease(line) {
		t.Fatal("c release degenerated")
	}
	k.Run()
	checkQuiet(t, s)
}

func TestSyncLongQueueAcrossGrid(t *testing.T) {
	// Every node in a 3×3 grid joins the same queue; the lock must visit
	// all of them exactly once, in join order.
	k, s := testSystem(t, 3)
	line := cache.Line(1)
	first := s.Node(at(0, 0))
	do(t, k, func(done func(Result)) { first.SyncAcquire(line, done) })

	var got []int
	want := []int{}
	idx := 0
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if r == 0 && c == 0 {
				continue
			}
			id := r*3 + c
			want = append(want, id)
			nd := s.Node(at(r, c))
			nd.SyncAcquire(line, func(res Result) {
				if !res.Acquired {
					t.Errorf("node %d: %+v", id, res)
				}
				got = append(got, id)
			})
			k.Run() // join completes (QUEUED) before the next joins
			idx++
		}
	}
	// Now release around the ring.
	if !first.SyncRelease(line) {
		t.Fatal("first release degenerated")
	}
	k.Run()
	for _, id := range want[:len(want)-1] {
		nd := s.NodeByID(topo.NodeID(id))
		if !nd.SyncRelease(line) {
			t.Fatalf("node %d release degenerated", id)
		}
		k.Run()
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("handoff order %v, want %v", got, want)
		}
	}
	// Last holder releases into an empty queue.
	last := s.NodeByID(topo.NodeID(want[len(want)-1]))
	if !last.SyncRelease(line) {
		t.Fatal("last release degenerated")
	}
	k.Run()
	checkQuiet(t, s)
}

func TestSyncFailWhenLockWordSetInMemory(t *testing.T) {
	// The lock word is set but the line is unmodified (a holder wrote it
	// back): SYNC degenerates and the caller must spin with TAS.
	k, s := testSystem(t, 4)
	line := cache.Line(2)
	s.MemoryAt(2).Store().Write(memory.Line(line), []uint64{1, 0, 0, 0})
	nd := s.Node(at(0, 0))
	res := do(t, k, func(done func(Result)) { nd.SyncAcquire(line, done) })
	if res.Acquired || !res.MustSpin {
		t.Fatalf("sync against held memory lock: %+v", res)
	}
	// The reserved allocation was cleaned up.
	if e := nd.Cache().Probe(line); e != nil && e.State == Reserved {
		t.Error("reserved copy leaked")
	}
	checkQuiet(t, s)
}

func TestSyncLocalReacquire(t *testing.T) {
	k, s := testSystem(t, 4)
	line := cache.Line(0)
	nd := s.Node(at(1, 1))
	do(t, k, func(done func(Result)) { nd.SyncAcquire(line, done) })
	// Second acquire from the same node while held: must spin.
	res := do(t, k, func(done func(Result)) { nd.SyncAcquire(line, done) })
	if !res.MustSpin {
		t.Fatalf("local re-acquire: %+v", res)
	}
	// Release locally, then re-acquire without bus traffic.
	nd.SyncRelease(line)
	k.Run()
	before := k.Executed()
	res = do(t, k, func(done func(Result)) { nd.SyncAcquire(line, done) })
	if !res.Acquired || k.Executed() != before {
		t.Fatalf("local reacquire used bus: %+v", res)
	}
	nd.SyncRelease(line)
	k.Run()
	checkQuiet(t, s)
}
