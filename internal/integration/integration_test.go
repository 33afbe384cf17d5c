// Package integration holds whole-machine scenario tests that combine the
// kernels, synchronization primitives and coherence protocol at larger
// scales and under adversarial configurations (tight caches, tight
// modified line tables, snarfing enabled) — the configurations where
// structural corner cases interact.
package integration

import (
	"testing"

	"multicube/internal/core"
	"multicube/internal/sim"
	"multicube/internal/syncprim"
	"multicube/internal/trace"
	"multicube/internal/workload"
)

func quiet(t *testing.T, m *core.Machine) {
	t.Helper()
	for _, err := range m.CheckInvariants() {
		t.Errorf("invariant: %v", err)
	}
}

// TestBankConservationTightCaches runs lock-protected transfers with
// bounded caches, bounded tables and snarfing all enabled: every
// structural mechanism (victim writebacks, MLT overflow writebacks,
// retained-tag snarfing, lock handoffs) interacts, and money must still
// be conserved.
func TestBankConservationTightCaches(t *testing.T) {
	m := core.MustNew(core.Config{
		N: 4, BlockWords: 8,
		CacheLines: 16, CacheAssoc: 4,
		MLTEntries: 8, MLTAssoc: 2,
		L1Lines: 8, L1Assoc: 2,
		Snarf: true,
	})
	const accounts = 12
	const initial = 500
	bw := core.Addr(m.BlockWords())
	for i := 0; i < accounts; i++ {
		m.SeedMemory(core.Addr(i)*bw+2, []uint64{initial})
	}
	locks := make([]*syncprim.QueueLock, accounts)
	for i := range locks {
		locks[i] = &syncprim.QueueLock{Addr: core.Addr(i) * bw}
	}
	m.SpawnAll(func(c *core.Ctx) {
		rng := workload.NewRand(uint64(c.ID())*7 + 1)
		for k := 0; k < 15; k++ {
			a, b := rng.Intn(accounts), rng.Intn(accounts)
			if a == b {
				b = (b + 1) % accounts
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			locks[lo].Lock(c)
			locks[hi].Lock(c)
			amt := uint64(rng.Intn(20) + 1)
			fb := c.Load(core.Addr(a)*bw + 2)
			if fb >= amt {
				c.Store(core.Addr(a)*bw+2, fb-amt)
				tb := c.Load(core.Addr(b)*bw + 2)
				c.Store(core.Addr(b)*bw+2, tb+amt)
			}
			locks[hi].Unlock(c)
			locks[lo].Unlock(c)
			c.Sleep(sim.Time(rng.Intn(3000)))
		}
	})
	m.Run()
	total := uint64(0)
	for i := 0; i < accounts; i++ {
		total += m.ReadCoherent(core.Addr(i)*bw + 2)
	}
	if total != accounts*initial {
		t.Fatalf("balance not conserved: %d, want %d", total, accounts*initial)
	}
	quiet(t, m)
}

// TestMixedLockAndDataTraffic runs lock-protected counters, a barrier
// phase, and unsynchronized private data streams simultaneously on
// disjoint lines.
func TestMixedLockAndDataTraffic(t *testing.T) {
	m := core.MustNew(core.Config{N: 3, BlockWords: 8})
	lock := &syncprim.QueueLock{Addr: 0}
	barrier := &syncprim.Barrier{
		Lock:      &syncprim.QueueLock{Addr: 64},
		CountAddr: 66,
		SenseAddr: 128,
		N:         m.Processors(),
	}
	const perProc = 8
	m.SpawnAll(func(c *core.Ctx) {
		var s syncprim.Sense
		base := core.Addr(512 + c.ID()*64)
		for i := 0; i < perProc; i++ {
			// Private stream.
			c.Store(base+core.Addr(i), uint64(i))
			// Shared counter under the lock (word 2 of the lock line).
			lock.Lock(c)
			v := c.Load(2)
			c.Store(2, v+1)
			lock.Unlock(c)
		}
		barrier.Wait(c, &s)
		// After the barrier everyone must see the final count.
		if got := c.Load(2); got != uint64(m.Processors()*perProc) {
			t.Errorf("cpu %d saw count %d after barrier", c.ID(), got)
		}
	})
	m.Run()
	quiet(t, m)
}

// TestLargeMachineStorm runs a 64-processor random storm with
// everything enabled and checks global state.
func TestLargeMachineStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("large machine storm")
	}
	m := core.MustNew(core.Config{
		N: 8, BlockWords: 16,
		CacheLines: 64, CacheAssoc: 4,
		MLTEntries: 32, MLTAssoc: 4,
		Snarf: true,
	})
	rep := workload.Run(m, workload.GenConfig{
		Seed: 77, Think: 4 * sim.Microsecond, Exponential: true,
		PShared: 0.7, PWrite: 0.4, SharedLines: 64, PrivateLines: 8,
		Requests: 120,
	})
	if rep.References != uint64(64*120) {
		t.Fatalf("references = %d", rep.References)
	}
	if rep.Efficiency() <= 0 || rep.Efficiency() > 1 {
		t.Fatalf("efficiency = %f", rep.Efficiency())
	}
	quiet(t, m)
}

// TestTraceReplayAcrossConfigurations replays one captured trace against
// three machine configurations; each must satisfy the invariants and
// complete every reference.
func TestTraceReplayAcrossConfigurations(t *testing.T) {
	tr := &trace.Trace{}
	workload.References(workload.GenConfig{Seed: 5, Requests: 40, PrivateLines: 6, SharedLines: 24, PShared: 0.6, PWrite: 0.4},
		16, 8, tr.AppendRef)
	for _, cfg := range []core.Config{
		{N: 4, BlockWords: 8},
		{N: 4, BlockWords: 8, CacheLines: 8, CacheAssoc: 2},
		{N: 4, BlockWords: 8, MLTEntries: 4, MLTAssoc: 2, Snarf: true},
	} {
		m := core.MustNew(cfg)
		if err := trace.Replay(m, tr, 500*sim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		mt := m.Metrics()
		if mt.Loads+mt.Stores != uint64(tr.Len()) {
			t.Errorf("config %+v: replayed %d of %d", cfg, mt.Loads+mt.Stores, tr.Len())
		}
		quiet(t, m)
	}
}

// TestMatMulBoundedCaches runs the matmul kernel with small caches and
// an L1: correctness must survive constant capacity traffic.
func TestMatMulBoundedCaches(t *testing.T) {
	m := core.MustNew(core.Config{
		N: 3, BlockWords: 8,
		CacheLines: 24, CacheAssoc: 4,
		L1Lines: 4, L1Assoc: 2,
	})
	l := workload.MatMulLayout{Dim: 8, ABase: 0, BBase: 512, CBase: 1024}
	workload.SeedMatrices(m, l)
	workers := m.Processors()
	for id := 0; id < workers; id++ {
		id := id
		m.Spawn(id, func(c *core.Ctx) { workload.MatMulWorker(c, l, id, workers) })
	}
	m.Run()
	if bad := workload.CheckMatMul(m, l); bad != 0 {
		t.Fatalf("%d wrong elements with bounded caches", bad)
	}
	quiet(t, m)
}

// TestStencilTightMLT runs the barrier stencil with a tiny modified line
// table, forcing constant overflow writebacks during synchronization.
func TestStencilTightMLT(t *testing.T) {
	m := core.MustNew(core.Config{
		N: 3, BlockWords: 8,
		MLTEntries: 2, MLTAssoc: 1,
	})
	l := workload.StencilLayout{
		Cells: 48, SrcBase: 0, DstBase: 512,
		LockAddr: 1024, CountAddr: 1026, SenseAddr: 1088,
		Iterations: 4,
	}
	m.SeedMemory(l.SrcBase+24, []uint64{800})
	barrier := &syncprim.Barrier{
		Lock:      &syncprim.QueueLock{Addr: l.LockAddr},
		CountAddr: l.CountAddr,
		SenseAddr: l.SenseAddr,
		N:         m.Processors(),
	}
	workers := m.Processors()
	for id := 0; id < workers; id++ {
		id := id
		m.Spawn(id, func(c *core.Ctx) { workload.StencilWorker(c, l, id, workers, barrier) })
	}
	m.Run()
	if got := m.ReadCoherent(l.SrcBase + 24); got >= 800 {
		t.Errorf("spike did not diffuse under tight MLT: %d", got)
	}
	quiet(t, m)
}

// TestDeterminismAcrossEverything runs the tight-cache bank scenario
// twice and requires identical final machine states.
func TestDeterminismAcrossEverything(t *testing.T) {
	run := func() (sim.Time, uint64) {
		m := core.MustNew(core.Config{
			N: 3, BlockWords: 8,
			CacheLines: 16, CacheAssoc: 4,
			MLTEntries: 8, MLTAssoc: 2,
			Snarf: true,
		})
		lock := &syncprim.QueueLock{Addr: 0}
		m.SpawnAll(func(c *core.Ctx) {
			rng := workload.NewRand(uint64(c.ID()) + 3)
			for i := 0; i < 10; i++ {
				lock.Lock(c)
				v := c.Load(3)
				c.Store(3, v+1)
				lock.Unlock(c)
				c.Sleep(sim.Time(rng.Intn(2000)))
			}
		})
		end := m.Run()
		return end, m.ReadCoherent(3)
	}
	t1, v1 := run()
	t2, v2 := run()
	if t1 != t2 || v1 != v2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, v1, t2, v2)
	}
	if v1 != 90 {
		t.Fatalf("count = %d, want 90", v1)
	}
}
