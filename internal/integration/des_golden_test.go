package integration

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/coherence"
	"multicube/internal/core"
	"multicube/internal/memory"
	"multicube/internal/mlt"
	"multicube/internal/sim"
	"multicube/internal/syncprim"
	"multicube/internal/topology"
	"multicube/internal/workload"
)

// updateDESGolden regenerates testdata/des_golden.json from the code
// under test: go test ./internal/integration -run TestDESGolden -update.
// Only after a deliberate change to what the machine simulates — an
// optimisation must match the committed file untouched.
var updateDESGolden = flag.Bool("update", false, "rewrite testdata/des_golden.json")

const desGoldenPath = "testdata/des_golden.json"

// desGoldenEntry pins one timed run of the grid machine across commits:
// the metrics report, the generator's report, and hashes of the final
// memory and cache images and of every bus operation in issue order.
// The hashes are FNV-1a over little-endian words, so they depend on
// nothing in this repository.
type desGoldenEntry struct {
	Name    string          `json:"name"`
	Metrics string          `json:"metrics"`
	Report  workload.Report `json:"report"`
	// Structure sums the counters Metrics leaves out over every node:
	// evictions, snarfs, table overflows and failed removes, L1 fills.
	Structure  string `json:"structure"`
	Invariants int    `json:"invariant_violations"`
	ImageHash  string `json:"image_hash"`
	Ops        int    `json:"bus_ops_issued"`
	OpLogHash  string `json:"oplog_hash"`
}

// wordHash is FNV-1a over a sequence of 64-bit words.
type wordHash struct{ h hash.Hash64 }

func newWordHash() wordHash { return wordHash{fnv.New64a()} }

func (w wordHash) put(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.h.Write(buf[:])
}

func (w wordHash) String() string { return fmt.Sprintf("%016x", w.h.Sum64()) }

// desGoldenCase builds a machine and runs it to quiescence, returning the
// generator's report (zero but for Elapsed when the run is a program).
type desGoldenCase struct {
	name string
	cfg  core.Config
	run  func(t *testing.T, m *core.Machine) workload.Report
}

func genRun(gen workload.GenConfig) func(*testing.T, *core.Machine) workload.Report {
	return func(_ *testing.T, m *core.Machine) workload.Report { return workload.Run(m, gen) }
}

// The two mixes of the repository benchmark (benchmark/main.go), with
// fewer requests.
func sharedMix(requests int) workload.GenConfig {
	return workload.GenConfig{Seed: 1, Think: 10 * sim.Microsecond, Exponential: true,
		SharedLines: 64, PrivateLines: 16, PShared: 0.5, PWrite: 0.3, Requests: requests}
}

func privateMix(requests int) workload.GenConfig {
	g := sharedMix(requests)
	g.PShared = 0.01
	return g
}

func runMatMul(t *testing.T, m *core.Machine) workload.Report {
	l := workload.MatMulLayout{Dim: 16, ABase: 0, BBase: 512, CBase: 1024, MACTime: 100 * sim.Nanosecond}
	workload.SeedMatrices(m, l)
	workers := m.Processors()
	for id := 0; id < workers; id++ {
		id := id
		m.Spawn(id, func(c *core.Ctx) { workload.MatMulWorker(c, l, id, workers) })
	}
	elapsed := m.Run()
	if bad := workload.CheckMatMul(m, l); bad != 0 {
		t.Errorf("matmul: %d wrong elements", bad)
	}
	return workload.Report{Elapsed: elapsed}
}

func runStencil(lock func(addr core.Addr) syncprim.Locker) func(*testing.T, *core.Machine) workload.Report {
	return func(t *testing.T, m *core.Machine) workload.Report {
		l := workload.StencilLayout{Cells: 48, SrcBase: 0, DstBase: 512,
			LockAddr: 1024, CountAddr: 1026, SenseAddr: 1088, Iterations: 4}
		m.SeedMemory(l.SrcBase+24, []uint64{800})
		barrier := &syncprim.Barrier{Lock: lock(l.LockAddr), CountAddr: l.CountAddr, SenseAddr: l.SenseAddr, N: m.Processors()}
		workers := m.Processors()
		for id := 0; id < workers; id++ {
			id := id
			m.Spawn(id, func(c *core.Ctx) { workload.StencilWorker(c, l, id, workers, barrier) })
		}
		return workload.Report{Elapsed: m.Run()}
	}
}

// runWorkQueue is examples/workqueue at a quarter of the size: the SYNC
// distributed queue under producers and consumers.
func runWorkQueue(t *testing.T, m *core.Machine) workload.Report {
	q := workload.NewWorkQueue(0, 1024, 16)
	const producers, perProducer = 3, 10
	for id := 0; id < producers; id++ {
		id := id
		m.Spawn(id, func(c *core.Ctx) {
			for i := 0; i < perProducer; i++ {
				q.Push(c, uint64(id*1000+i))
				c.Sleep(3 * sim.Microsecond)
			}
		})
	}
	done := 0
	for id := producers; id < m.Processors(); id++ {
		m.Spawn(id, func(c *core.Ctx) {
			for idle := 0; done < producers*perProducer && idle < 400; {
				if _, ok := q.Pop(c); ok {
					done++
					idle = 0
					c.Sleep(5 * sim.Microsecond)
				} else {
					idle++
					c.Sleep(1 * sim.Microsecond)
				}
			}
		})
	}
	elapsed := m.Run()
	if done != producers*perProducer {
		t.Errorf("work queue: processed %d of %d tasks", done, producers*perProducer)
	}
	return workload.Report{Elapsed: elapsed}
}

// runTASCounter increments one shared word under the remote test-and-set
// spin lock from every processor.
func runTASCounter(t *testing.T, m *core.Machine) workload.Report {
	lock := &syncprim.TASLock{Addr: 0}
	const perProc = 6
	m.SpawnAll(func(c *core.Ctx) {
		rng := workload.NewRand(uint64(c.ID()) + 11)
		for i := 0; i < perProc; i++ {
			lock.Lock(c)
			c.Store(2, c.Load(2)+1)
			lock.Unlock(c)
			c.Sleep(sim.Time(rng.Intn(2000)))
		}
	})
	elapsed := m.Run()
	if got, want := m.ReadCoherent(2), uint64(m.Processors()*perProc); got != want {
		t.Errorf("TAS counter = %d, want %d", got, want)
	}
	return workload.Report{Elapsed: elapsed}
}

func desGoldenCases() []desGoldenCase {
	// Small enough to evict, write back victims, overflow the table and
	// purge the processor cache on every few references.
	tight := core.Config{N: 4, BlockWords: 8, CacheLines: 16, CacheAssoc: 4, MLTEntries: 8, MLTAssoc: 2}
	tightL1 := tight
	tightL1.L1Lines, tightL1.L1Assoc = 8, 2
	tightSnarf := tightL1
	tightSnarf.Snarf = true
	hot := workload.GenConfig{Seed: 7, Think: 4 * sim.Microsecond, Exponential: true,
		SharedLines: 24, PrivateLines: 12, PShared: 0.6, PWrite: 0.4, Requests: 300}
	queueLock := func(a core.Addr) syncprim.Locker { return &syncprim.QueueLock{Addr: a} }
	tasLock := func(a core.Addr) syncprim.Locker { return &syncprim.TASLock{Addr: a} }
	return []desGoldenCase{
		{"shared/n4", core.Config{N: 4}, genRun(sharedMix(600))},
		{"shared/n8", core.Config{N: 8}, genRun(sharedMix(500))},
		{"private/n4", core.Config{N: 4}, genRun(privateMix(2500))},
		{"private/n8", core.Config{N: 8}, genRun(privateMix(1000))},
		{"bounded", tight, genRun(hot)},
		{"bounded/l1", tightL1, genRun(hot)},
		{"bounded/l1/snarf", tightSnarf, genRun(hot)},
		{"l1", core.Config{N: 4, L1Lines: 16, L1Assoc: 2}, genRun(sharedMix(400))},
		{"snarf", core.Config{N: 4, Snarf: true}, genRun(sharedMix(400))},
		{"arbitration/rr", core.Config{N: 4, Arbitration: bus.RoundRobin}, genRun(sharedMix(400))},
		{"arbitration/priority", core.Config{N: 4, Arbitration: bus.Priority}, genRun(sharedMix(400))},
		{"matmul", core.Config{N: 3, BlockWords: 8, CacheLines: 24, CacheAssoc: 4, L1Lines: 4, L1Assoc: 2}, runMatMul},
		{"stencil/sync", core.Config{N: 3, BlockWords: 8, MLTEntries: 2, MLTAssoc: 1}, runStencil(queueLock)},
		{"stencil/tas", core.Config{N: 3, BlockWords: 8}, runStencil(tasLock)},
		{"workqueue/sync", core.Config{N: 3, BlockWords: 16}, runWorkQueue},
		{"counter/tas", core.Config{N: 3, BlockWords: 8, Snarf: true}, runTASCounter},
	}
}

func desGoldenRun(t *testing.T, c desGoldenCase) desGoldenEntry {
	t.Helper()
	m, err := core.New(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ops, opLog := 0, newWordHash()
	m.System().OpLog = func(dim coherence.Dim, issuer topology.Coord, op *coherence.Op) {
		ops++
		for _, v := range []uint64{uint64(dim), uint64(int64(issuer.Row)), uint64(int64(issuer.Col)),
			uint64(op.Txn), uint64(op.Flags), uint64(op.Line), uint64(m.Kernel().Now())} {
			opLog.put(v)
		}
	}
	rep := c.run(t, m)
	e := desGoldenEntry{Name: c.name, Metrics: m.Metrics().String(), Report: rep, Ops: ops, OpLogHash: opLog.String()}
	var cs cache.Stats
	var ts mlt.Stats
	var l1Fills uint64
	for id := 0; id < m.Processors(); id++ {
		p := m.Processor(id)
		c := p.Node().Cache().Stats()
		cs.Inserts += c.Inserts
		cs.Evictions += c.Evictions
		cs.Snarfs += c.Snarfs
		l1Fills += p.Stats().L1Fills
	}
	// The table counts are summed over the paper's n copies of each
	// column's table, as they were recorded: n times the column's counts.
	for c, n := 0, uint64(m.Config().N); c < m.Config().N; c++ {
		t := m.System().MLT().Stats(c)
		ts.Inserts += n * t.Inserts
		ts.Removes += n * t.Removes
		ts.Failures += n * t.Failures
		ts.Overflows += n * t.Overflows
	}
	e.Structure = fmt.Sprintf("cache inserts %d evictions %d snarfs %d; mlt inserts %d removes %d failures %d overflows %d; l1 fills %d; strays %d",
		cs.Inserts, cs.Evictions, cs.Snarfs, ts.Inserts, ts.Removes, ts.Failures, ts.Overflows, l1Fills, m.System().StrayReplies())
	for _, err := range m.CheckInvariants() {
		t.Errorf("invariant: %v", err)
		e.Invariants++
	}
	e.ImageHash = imageHash(m)
	return e
}

// imageHash hashes a machine's final image: every memory module's lines
// and valid bits, then every snooping cache's resident lines, both in
// ascending order.
func imageHash(m *core.Machine) string {
	img := newWordHash()
	n := m.Config().N
	for col := 0; col < n; col++ {
		m.System().MemoryAt(col).Store().ForEach(func(line memory.Line, valid bool, data []uint64) {
			img.put(uint64(line))
			if valid {
				img.put(1)
			} else {
				img.put(0)
			}
			for _, w := range data {
				img.put(w)
			}
		})
	}
	for id := 0; id < m.Processors(); id++ {
		img.put(uint64(id))
		m.Processor(id).Node().Cache().ForEach(func(e *cache.Entry) {
			img.put(uint64(e.Line))
			img.put(uint64(e.State))
			for _, w := range e.Data {
				img.put(w)
			}
		})
	}
	return img.String()
}

// TestDESGolden runs the timed machine over the benchmark's two mixes,
// bounded caches and tables, the processor cache, snarfing, every bus
// arbitration and the program kernels, and compares each run with the
// committed table. Same-run determinism is tested elsewhere; this is the
// test that notices a change to the simulator moving a simulated number.
func TestDESGolden(t *testing.T) {
	cases := desGoldenCases()
	if *updateDESGolden {
		var table []desGoldenEntry
		for _, c := range cases {
			table = append(table, desGoldenRun(t, c))
		}
		data, err := json.MarshalIndent(table, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(desGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(desGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(desGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var table []desGoldenEntry
	if err := json.Unmarshal(data, &table); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]desGoldenEntry, len(table))
	for _, e := range table {
		want[e.Name] = e
	}
	if len(want) != len(cases) {
		t.Errorf("%d golden entries for %d cases; regenerate with -update", len(want), len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w, ok := want[c.name]
			if !ok {
				t.Fatal("no golden entry; regenerate with -update")
			}
			if got := desGoldenRun(t, c); !reflect.DeepEqual(got, w) {
				t.Fatalf("simulation changed:\n got  %+v\n want %+v", got, w)
			}
		})
	}
}

// TestParallelConfigIgnored holds what is left of the parallel engine to
// what the benchmark harness relies on: a machine built with Parallel
// set builds, reports sequential, and simulates exactly what one built
// without it does.
func TestParallelConfigIgnored(t *testing.T) {
	m, err := core.New(core.Config{N: 4, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Parallel() || m.Runner() != nil {
		t.Fatal("a machine built with Parallel: 2 reports the parallel engine")
	}
	c := desGoldenCases()[2] // private/n4, the mix des-private runs
	seq := desGoldenRun(t, c)
	c.cfg.Parallel = 2
	if par := desGoldenRun(t, c); par.Metrics != seq.Metrics || par.Report != seq.Report {
		t.Fatalf("Parallel: 2 changed the run:\n got  %+v\n want %+v", par, seq)
	}
}
