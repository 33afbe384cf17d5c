package workload

import (
	"strings"
	"testing"

	"multicube/internal/core"
	"multicube/internal/sim"
	"multicube/internal/singlebus"
	"multicube/internal/syncprim"
)

func TestRandDeterministicAndUniformish(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	r := NewRand(7)
	buckets := make([]int, 10)
	for i := 0; i < 10000; i++ {
		buckets[r.Intn(10)]++
	}
	for i, n := range buckets {
		if n < 800 || n > 1200 {
			t.Errorf("bucket %d = %d, badly skewed", i, n)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(3)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / n
	if mean < 90 || mean > 110 {
		t.Errorf("Exp mean = %f, want ~100", mean)
	}
}

func TestGeneratorRunsAndReports(t *testing.T) {
	m := core.MustNew(core.Config{N: 3, BlockWords: 8})
	rep := Run(m, GenConfig{Seed: 1, Requests: 30, Think: 5 * sim.Microsecond, PShared: 0.5, PWrite: 0.3})
	if rep.References != 30*9 {
		t.Fatalf("references = %d, want %d", rep.References, 30*9)
	}
	if rep.Elapsed == 0 || rep.BusTransactions == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	eff := rep.Efficiency()
	if eff <= 0 || eff > 1 {
		t.Fatalf("efficiency = %f", eff)
	}
	if rep.BusRate(9) <= 0 {
		t.Fatal("zero bus rate")
	}
	for _, err := range m.CheckInvariants() {
		t.Errorf("invariant: %v", err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64) {
		m := core.MustNew(core.Config{N: 3, BlockWords: 8})
		rep := Run(m, GenConfig{Seed: 9, Requests: 25, Exponential: true, PShared: 0.5, PWrite: 0.3})
		return rep.Elapsed, rep.BusTransactions
	}
	e1, b1 := run()
	e2, b2 := run()
	if e1 != e2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", e1, b1, e2, b2)
	}
}

func TestGeneratorEfficiencyFallsWithLoad(t *testing.T) {
	eff := func(think sim.Time) float64 {
		m := core.MustNew(core.Config{N: 3, BlockWords: 8})
		rep := Run(m, GenConfig{Seed: 5, Requests: 40, Think: think, PShared: 0.9, PWrite: 0.5, SharedLines: 8})
		return rep.Efficiency()
	}
	light := eff(50 * sim.Microsecond)
	heavy := eff(2 * sim.Microsecond)
	if light <= heavy {
		t.Errorf("efficiency light=%f heavy=%f; should fall with load", light, heavy)
	}
}

func TestRunSingleBusGenerator(t *testing.T) {
	m := singlebus.MustNew(singlebus.Config{Processors: 4, BlockWords: 16})
	rep := RunSingleBus(m, GenConfig{Seed: 2, Requests: 20, PShared: 0.5, PWrite: 0.3})
	if rep.References != 80 || rep.BusTransactions == 0 {
		t.Fatalf("report: %+v", rep)
	}
	for _, err := range singlebus.CheckInvariants(m) {
		t.Errorf("invariant: %v", err)
	}
}

func TestMatMulKernel(t *testing.T) {
	m := core.MustNew(core.Config{N: 2, BlockWords: 4})
	l := MatMulLayout{Dim: 8, ABase: 0, BBase: 1024, CBase: 2048}
	SeedMatrices(m, l)
	workers := m.Processors()
	for id := 0; id < workers; id++ {
		id := id
		m.Spawn(id, func(c *core.Ctx) { MatMulWorker(c, l, id, workers) })
	}
	m.Run()
	if bad := CheckMatMul(m, l); bad != 0 {
		t.Fatalf("%d wrong elements", bad)
	}
	for _, err := range m.CheckInvariants() {
		t.Errorf("invariant: %v", err)
	}
}

func TestStencilKernelConverges(t *testing.T) {
	m := core.MustNew(core.Config{N: 2, BlockWords: 4})
	l := StencilLayout{
		Cells: 32, SrcBase: 0, DstBase: 256,
		LockAddr: 512, CountAddr: 514, SenseAddr: 576,
		Iterations: 6,
	}
	// A spike in the middle should diffuse outward.
	m.SeedMemory(l.SrcBase+16, []uint64{900})
	// Destination boundary cells mirror the source's (never written).
	barrier := &syncprim.Barrier{
		Lock:      &syncprim.QueueLock{Addr: l.LockAddr},
		CountAddr: l.CountAddr,
		SenseAddr: l.SenseAddr,
		N:         m.Processors(),
	}
	workers := m.Processors()
	for id := 0; id < workers; id++ {
		id := id
		m.Spawn(id, func(c *core.Ctx) { StencilWorker(c, l, id, workers, barrier) })
	}
	m.Run()
	// After an even number of iterations the result is back in SrcBase.
	center := m.ReadCoherent(l.SrcBase + 16)
	neighbour := m.ReadCoherent(l.SrcBase + 13)
	if center >= 900 {
		t.Errorf("spike did not diffuse: center = %d", center)
	}
	if neighbour == 0 {
		t.Error("diffusion did not spread to neighbours")
	}
	for _, err := range m.CheckInvariants() {
		t.Errorf("invariant: %v", err)
	}
}

func TestWorkQueuePushPop(t *testing.T) {
	m := core.MustNew(core.Config{N: 2, BlockWords: 8})
	q := NewWorkQueue(0, 64, 16)
	consumed := make(map[uint64]bool)
	const tasks = 40
	m.Spawn(0, func(c *core.Ctx) { // producer
		for i := uint64(1); i <= tasks; i++ {
			q.Push(c, i)
			c.Sleep(500 * sim.Nanosecond)
		}
	})
	done := 0
	for id := 1; id < 4; id++ {
		m.Spawn(id, func(c *core.Ctx) { // consumers
			idle := 0
			for done < tasks && idle < 200 {
				if task, ok := q.Pop(c); ok {
					if consumed[task] {
						t.Errorf("task %d consumed twice", task)
					}
					consumed[task] = true
					done++
					idle = 0
				} else {
					idle++
					c.Sleep(1 * sim.Microsecond)
				}
			}
		})
	}
	m.Run()
	if done != tasks {
		t.Fatalf("consumed %d tasks, want %d", done, tasks)
	}
	for _, err := range m.CheckInvariants() {
		t.Errorf("invariant: %v", err)
	}
}

// TestZeroProbabilitiesAreZero: a PShared and PWrite of zero mean no
// shared reference and no store. The 0.5 and 0.3 an unset value gets
// belong to the CLI's flags and jobspec's fill, not to the generator.
func TestZeroProbabilitiesAreZero(t *testing.T) {
	cfg := GenConfig{Seed: 1, Requests: 200, PrivateLines: 4, SharedLines: 8}
	const procs, bw = 4, 8
	sharedBase := uint64(procs * cfg.PrivateLines * bw)
	refs := 0
	References(cfg, procs, bw, func(proc int, write bool, addr uint64) {
		refs++
		if write || addr >= sharedBase {
			t.Fatalf("processor %d drew write=%v at %d (shared set from %d)", proc, write, addr, sharedBase)
		}
	})
	if refs != procs*cfg.Requests {
		t.Fatalf("%d references, want %d", refs, procs*cfg.Requests)
	}
	m := core.MustNew(core.Config{N: 2, BlockWords: bw})
	if rep := Run(m, cfg); rep.References != uint64(refs) {
		t.Fatalf("Run issued %d references, References drew %d", rep.References, refs)
	}
	for id := 0; id < m.Processors(); id++ {
		if w := m.Processor(id).Node().Stats().Writes; w != 0 {
			t.Errorf("processor %d issued %d stores", id, w)
		}
	}
	if got, want := cfg.Describe(), "shared=8/0% write=0%"; !strings.Contains(got, want) {
		t.Errorf("Describe() = %q, want it to contain %q", got, want)
	}
}

func TestDescribe(t *testing.T) {
	s := GenConfig{}.Describe()
	if len(s) == 0 {
		t.Fatal("empty description")
	}
}
