package experiments

import (
	"strconv"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/coherence"
	"multicube/internal/core"
	"multicube/internal/mva"
	"multicube/internal/sim"
	"multicube/internal/stats"
	"multicube/internal/syncprim"
	"multicube/internal/topology"
	"multicube/internal/workload"
)

// This file holds the ablations DESIGN.md calls out beyond the paper's
// own figures: design choices the paper discusses qualitatively, measured
// on the simulator.

// Dimensions regenerates the Section 6 "future research" question with
// the generalized analytical model: ~1K processors built as n^k for
// several (n, k).
func Dimensions() *stats.Figure { return mva.DimensionSweep(nil) }

// Snarf measures the retained-tag snarf optimization of Section 3: with
// a read-heavy shared workload, bystanders that recently lost a line can
// re-acquire it from passing replies, cutting bus transactions.
func Snarf(requests int) *stats.Table {
	if requests == 0 {
		requests = 150
	}
	t := stats.NewTable(
		"Snarf ablation (Section 3): re-acquiring passing lines into retained tags",
		"snarf", "bus txns", "bus ops", "snarfs", "efficiency")
	for _, enabled := range []bool{false, true} {
		m := core.MustNew(core.Config{N: 4, BlockWords: 16, Snarf: enabled})
		rep := workload.Run(m, workload.GenConfig{
			Seed: 11, Think: 5 * sim.Microsecond, Exponential: true,
			PShared: 0.9, PWrite: 0.15, SharedLines: 8, PrivateLines: 4,
			Requests: requests,
		})
		mt := m.Metrics()
		var snarfs uint64
		for id := 0; id < m.Processors(); id++ {
			snarfs += m.Processor(id).Node().Cache().Stats().Snarfs
		}
		t.AddRow(enabled, rep.BusTransactions, mt.RowBusOps+mt.ColBusOps, snarfs, rep.Efficiency())
	}
	return t
}

// MLTSize sweeps the modified line table capacity (the paper's footnote
// 7: an undersized table forces modified lines back to memory — "this is
// why the modified line table is likely to be implemented as a cache").
func MLTSize(requests int) *stats.Table {
	if requests == 0 {
		requests = 150
	}
	t := stats.NewTable(
		"Modified line table sizing (footnote 7): overflow forces write-backs",
		"entries", "overflows", "memory writes", "efficiency")
	for _, entries := range []int{2, 4, 8, 16, 0} {
		m := core.MustNew(core.Config{N: 4, BlockWords: 16, MLTEntries: entries, MLTAssoc: 2})
		if entries == 0 {
			m = core.MustNew(core.Config{N: 4, BlockWords: 16})
		}
		rep := workload.Run(m, workload.GenConfig{
			Seed: 13, Think: 5 * sim.Microsecond, Exponential: true,
			PShared: 0.8, PWrite: 0.6, SharedLines: 48, PrivateLines: 4,
			Requests: requests,
		})
		var overflows uint64
		for id := 0; id < m.Processors(); id++ {
			overflows += m.Processor(id).Node().Table().Stats().Overflows
		}
		name := "unbounded"
		if entries > 0 {
			name = strconv.Itoa(entries)
		}
		t.AddRow(name, overflows, m.Metrics().MemoryWrites, rep.Efficiency())
	}
	return t
}

// FalseSharing measures the inefficiency Section 5 warns large coherency
// blocks invite: two processors alternately writing different words of
// the same block bounce it between their caches, versus the same writes
// to separate blocks.
func FalseSharing(iterations int) *stats.Table {
	if iterations == 0 {
		iterations = 60
	}
	t := stats.NewTable(
		"False sharing (Section 5): two writers, same vs separate coherency blocks",
		"layout", "bus ops", "ownership transfers", "elapsed")
	run := func(name string, addrA, addrB core.Addr) {
		m := core.MustNew(core.Config{N: 4, BlockWords: 16})
		m.Spawn(0, func(c *core.Ctx) {
			for i := 0; i < iterations; i++ {
				c.Store(addrA, uint64(i))
				c.Sleep(1 * sim.Microsecond)
			}
		})
		m.Spawn(15, func(c *core.Ctx) {
			for i := 0; i < iterations; i++ {
				c.Store(addrB, uint64(i))
				c.Sleep(1 * sim.Microsecond)
			}
		})
		elapsed := m.Run()
		mt := m.Metrics()
		transfers := mt.Txns[coherence.READMOD].Count
		t.AddRow(name, mt.RowBusOps+mt.ColBusOps, transfers, elapsed)
	}
	run("same block (false sharing)", 0, 1)
	run("separate blocks", 0, 16)
	return t
}

// Arbitration compares FIFO, round-robin and fixed-priority bus
// arbitration under a saturating workload (Section 5's "methods for
// reducing bus latency" design-issue list includes the bus controllers).
// This is the coherence-layer view; ArbitrationMachine
// (arbitrationmachine.go) runs the same ablation at machine level on the paper's 8×8
// configuration, selectable from multicube-sim with -arb.
func Arbitration(requests int) *stats.Table {
	if requests == 0 {
		requests = 150
	}
	t := stats.NewTable(
		"Bus arbitration policy under heavy shared traffic",
		"policy", "efficiency", "mean row util", "max queued (bus 0)")
	for _, cfg := range []struct {
		name string
		arb  bus.Arbitration
	}{
		{"FIFO", bus.FIFO},
		{"round-robin", bus.RoundRobin},
		{"priority", bus.Priority},
	} {
		k := sim.NewKernel()
		sys := coherence.MustNewSystem(k, coherence.Config{
			N: 4, BlockWords: 16, Arbitration: cfg.arb,
		})
		rep := driveSystem(k, sys, requests)
		t.AddRow(cfg.name, rep.eff, rep.rowUtil, rep.maxQueued)
	}
	return t
}

type sysReport struct {
	eff       float64
	rowUtil   float64
	maxQueued int
}

// driveSystem runs a saturating random workload directly on a coherence
// system and measures efficiency the same way the generator does.
func driveSystem(k *sim.Kernel, s *coherence.System, requests int) sysReport {
	n := s.Config().N
	think := 3 * sim.Microsecond
	var thinkSum, stallSum sim.Time
	rng := workload.NewRand(29)
	var launch func(nd *coherence.Node, remaining int)
	launch = func(nd *coherence.Node, remaining int) {
		if remaining == 0 {
			return
		}
		d := sim.Time(rng.Exp(float64(think)))
		thinkSum += d
		k.After(d, func() {
			line := uint64(rng.Intn(24))
			issued := k.Now()
			done := func(coherence.Result) {
				stallSum += k.Now() - issued
				launch(nd, remaining-1)
			}
			if rng.Intn(2) == 0 {
				nd.Read(cacheLine(line), done)
			} else {
				nd.Write(cacheLine(line), done)
			}
		})
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			launch(s.Node(coord(r, c)), requests)
		}
	}
	k.Run()
	var rowUtil float64
	maxQ := 0
	for i := 0; i < n; i++ {
		rowUtil += s.RowBus(i).Utilization(k.Now()) / float64(n)
		if q := s.RowBus(i).Stats().MaxQueued; q > maxQ {
			maxQ = q
		}
	}
	return sysReport{
		eff:       float64(thinkSum) / float64(thinkSum+stallSum),
		rowUtil:   rowUtil,
		maxQueued: maxQ,
	}
}

func cacheLine(v uint64) cache.Line { return cache.Line(v) }

func coord(r, c int) topology.Coord { return topology.Coord{Row: r, Col: c} }

// SyncScaling sweeps the number of contenders for one lock, reporting
// bus operations per critical section for each primitive — the scaling
// argument behind Section 4: test-and-set traffic grows with contention
// while the queue's handoff cost stays flat.
func SyncScaling(critSections int) *stats.Table {
	if critSections == 0 {
		critSections = 6
	}
	t := stats.NewTable(
		"Lock bus operations per critical section vs contenders (4×4 machine)",
		"contenders", "test-and-set", "test-and-test-and-set", "SYNC queue")
	for _, contenders := range []int{2, 4, 8, 16} {
		row := []interface{}{contenders}
		for _, mk := range []func() syncprim.Locker{
			func() syncprim.Locker { return &syncprim.TASLock{Addr: 0} },
			func() syncprim.Locker { return &syncprim.TTSLock{Addr: 0} },
			func() syncprim.Locker { return &syncprim.QueueLock{Addr: 0} },
		} {
			m := core.MustNew(core.Config{N: 4, BlockWords: 8})
			lock := mk()
			for id := 0; id < contenders; id++ {
				m.Spawn(id, func(c *core.Ctx) {
					for i := 0; i < critSections; i++ {
						lock.Lock(c)
						c.Sleep(2 * sim.Microsecond)
						lock.Unlock(c)
						c.Sleep(1 * sim.Microsecond)
					}
				})
			}
			m.Run()
			mt := m.Metrics()
			total := mt.RowBusOps + mt.ColBusOps
			row = append(row, float64(total)/float64(contenders*critSections))
		}
		t.AddRow(row...)
	}
	return t
}
