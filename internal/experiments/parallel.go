package experiments

import (
	"fmt"
	"runtime"
	"time"

	"multicube/internal/bus"
	"multicube/internal/core"
	"multicube/internal/mva"
	"multicube/internal/stats"
	"multicube/internal/workload"
)

// This file measures the conservative parallel engine (sim.Runner): the
// wall-clock speedup of column-partitioned execution over the sequential
// kernel on identical workloads, and the machine-level bus arbitration
// ablation the engine shares its seam with.

// ParallelConfig parameterizes the speedup measurement.
type ParallelConfig struct {
	// N is the machine edge (N×N processors); default 8.
	N int
	// Requests per processor; default 2000.
	Requests int
	// Workers lists the parallel worker counts to measure; default
	// {1, 2, 4, 8}.
	Workers []int
	// Seed for the generator workload.
	Seed uint64
	// Reps is how many times each mode runs; the report keeps the best
	// wall time (standard noise rejection — the minimum is the run with
	// the least interference, and results are identical across reps by
	// construction). Default 3.
	Reps int
	// PShared is the shared-reference probability; default 0.01, the
	// mostly-private mix the paper's analysis rests on (the Multicube
	// scales because nearly all references hit private caches, keeping
	// bus requests per processor in the low per-millisecond range).
	// Sharing rate is also what bounds the engine's parallelism: every
	// row-bus transaction is a synchronization point.
	PShared float64
}

func (c *ParallelConfig) fill() {
	if c.N == 0 {
		c.N = 8
	}
	if c.Requests == 0 {
		c.Requests = 2000
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PShared == 0 {
		c.PShared = 0.01
	}
	if c.Reps == 0 {
		c.Reps = 3
	}
}

// ParallelRun is one measured mode of the speedup experiment.
type ParallelRun struct {
	Mode         string // "sequential" or "parallel-<w>"
	Events       uint64
	WallSec      float64
	EventsPerSec float64
	Speedup      float64 // over the sequential run
	// Parallelism is the engine's available parallelism on this run:
	// total dispatched work over the critical path (serial boundary
	// steps plus each window's largest partition share). Wall-clock
	// speedup converges to min(workers, parallelism) given as many
	// cores; on fewer cores it is capped by the core count, which is
	// why the report records the host's CPU budget. Zero for the
	// sequential run.
	Parallelism  float64
	ElapsedSimNS uint64
	Identical    bool // same metrics, events and simulated time as sequential
}

// ParallelReport is the full speedup measurement plus the analytic
// cross-check: the MVA model solved at the measured per-processor bus
// request rate must predict an efficiency close to the simulated one, in
// both modes (which are identical by construction — Identical is the
// per-run receipt).
type ParallelReport struct {
	N        int
	Requests int // per processor
	PShared  float64
	// NumCPU records the measuring host's CPU budget: wall-clock speedup
	// is capped by min(workers, cores), so on a single-CPU host the honest
	// wall numbers hover near 1.0 and the parallelism column carries the
	// scaling claim.
	NumCPU        int
	Runs          []ParallelRun
	MVAEfficiency float64 // the MVA model solved at the measured request rate
}

// MeasureParallel runs the same seeded workload on the sequential kernel
// and on the parallel engine at each worker count, comparing results and
// timing the wall clock.
func MeasureParallel(cfg ParallelConfig) ParallelReport {
	cfg.fill()
	wl := workload.GenConfig{
		Seed: cfg.Seed, Requests: cfg.Requests,
		PShared: cfg.PShared, PWrite: 0.3,
	}
	rep := ParallelReport{
		N: cfg.N, Requests: cfg.Requests, PShared: cfg.PShared, NumCPU: runtime.NumCPU(),
	}

	// Each mode runs Reps times; results are identical across reps (the
	// metrics string is asserted to repeat), so only the best wall time
	// is kept.
	run := func(workers int) (ParallelRun, string) {
		var r ParallelRun
		var metrics string
		for rep := 0; rep < cfg.Reps; rep++ {
			m := core.MustNew(core.Config{N: cfg.N, Parallel: workers})
			start := time.Now()
			wrep := workload.Run(m, wl)
			wall := time.Since(start)
			if rep > 0 {
				if s := m.Metrics().String(); s != metrics {
					panic(fmt.Sprintf("experiments: repetition diverged (workers=%d)", workers))
				}
				if wall.Seconds() < r.WallSec {
					r.WallSec = wall.Seconds()
				}
				continue
			}
			metrics = m.Metrics().String()
			r = ParallelRun{
				Mode:         "sequential",
				Events:       m.Executed(),
				WallSec:      wall.Seconds(),
				ElapsedSimNS: uint64(wrep.Elapsed),
			}
			if workers > 0 {
				r.Mode = fmt.Sprintf("parallel-%d", m.Runner().Workers())
				r.Parallelism = m.Runner().Stats().Parallelism()
			}
		}
		r.EventsPerSec = float64(r.Events) / r.WallSec
		return r, metrics
	}

	seq, seqMetrics := run(0)
	seq.Identical = true
	seq.Speedup = 1
	rep.Runs = append(rep.Runs, seq)
	for _, w := range cfg.Workers {
		r, metrics := run(w)
		r.Speedup = seq.WallSec / r.WallSec
		r.Identical = metrics == seqMetrics && r.Events == seq.Events &&
			r.ElapsedSimNS == seq.ElapsedSimNS
		rep.Runs = append(rep.Runs, r)
	}

	// Analytic cross-check: solve the paper's MVA model at the measured
	// request rate. The generator's mix differs from the Figure 2
	// parameterization, so agreement is approximate.
	m := core.MustNew(core.Config{N: cfg.N})
	wrep := workload.Run(m, wl)
	p := mva.Defaults(cfg.N)
	if rate := wrep.BusRate(m.Processors()); rate > 0 {
		p.RequestRate = rate
	}
	rep.MVAEfficiency = mva.MustSolve(p).Efficiency
	return rep
}

// Parallel renders the speedup measurement as a table for multicube-bench.
func Parallel(cfg ParallelConfig) *stats.Table {
	cfg.fill()
	rep := MeasureParallel(cfg)
	t := stats.NewTable(
		fmt.Sprintf("Conservative parallel engine, %d×%d machine, %d refs/proc, %.0f%% shared (MVA efficiency %.3f, %d CPUs)",
			rep.N, rep.N, rep.Requests, 100*rep.PShared, rep.MVAEfficiency, rep.NumCPU),
		"mode", "events", "wall", "events_per_sec", "speedup", "parallelism", "identical")
	for _, r := range rep.Runs {
		par := "-"
		if r.Parallelism > 0 {
			par = fmt.Sprintf("%.2f", r.Parallelism)
		}
		t.AddRow(r.Mode, r.Events,
			fmt.Sprintf("%.3fs", r.WallSec),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.2f", r.Speedup),
			par,
			r.Identical)
	}
	return t
}

// ArbitrationMachine is the service-discipline ablation at machine level
// on the paper's 8×8 configuration: FCFS (the paper's model) against
// round-robin and fixed-priority grant order (the head-of-line policy of
// the arXiv:1004.3560 bus-arbitration study), identical workload per
// policy. The interesting measured result is that fixed priority wins on
// this closed-loop workload: a stable grant winner holds block ownership
// longer, cutting invalidation ping-pong (fewer row and column ops) and
// finishing sooner. The fairness cost doesn't bind here — every
// processor issues a fixed request count, so starvation surfaces as
// per-processor tail latency, not lost throughput.
func ArbitrationMachine(requests int) *stats.Table {
	if requests == 0 {
		requests = 300
	}
	t := stats.NewTable(
		"Bus arbitration on the 8×8 machine, shared-heavy workload",
		"policy", "efficiency", "elapsed", "row ops", "col ops", "req/ms/proc")
	for _, arb := range []bus.Arbitration{bus.FIFO, bus.RoundRobin, bus.Priority} {
		m := core.MustNew(core.Config{N: 8, Arbitration: arb})
		rep := workload.Run(m, workload.GenConfig{
			Seed: 5, Requests: requests,
			PShared: 0.8, PWrite: 0.4, SharedLines: 32,
		})
		mt := m.Metrics()
		t.AddRow(arb.String(), fmt.Sprintf("%.4f", rep.Efficiency()), rep.Elapsed,
			mt.RowBusOps, mt.ColBusOps, fmt.Sprintf("%.2f", rep.BusRate(m.Processors())))
	}
	return t
}
