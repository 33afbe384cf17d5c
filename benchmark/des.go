package main

import (
	"fmt"
	"math"
	"time"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/coherence"
	"multicube/internal/core"
	"multicube/internal/mva"
	"multicube/internal/sim"
	"multicube/internal/topology"
	"multicube/internal/workload"
)

// desN is the grid side of the timed machine: 8×8 processors with the
// paper's defaults (16-word blocks, unbounded snooping cache and MLT,
// Figure 2 timing, no L1).
const desN = 8

// desWorkload is one closed-loop run of the synthetic reference
// generator on the timed machine. des-shared and des-private are the
// same code with different mixes.
type desWorkload struct {
	gen workload.GenConfig
	// runner adds the partitioned-runner comparison to the probes; it is
	// probed on the mostly-private mix, where BENCH_sim.json measured it.
	runner bool
}

func (w *desWorkload) setup(seed uint64, scratch string) error {
	w.gen.Seed = seed
	if p := w.pass(nil, 0, 0); p.failed > 0 {
		return fmt.Errorf("warm-up pass failed: %v", p.errs)
	}
	return nil
}

// desSeedStride separates the generator seeds of one run's variants; it
// is far above any seed a caller passes, so two runs share no stream.
const desSeedStride = 1 << 32

func (w *desWorkload) pass(tr *tracer, parent, variant int) passResult {
	return w.passOn(tr, parent, variant, core.Config{N: desN})
}

// passOn runs the timed section — build the machine, run the generator
// to completion, snapshot the metrics — and then, untimed, the checks.
// Variant v draws its reference streams from seed + v·desSeedStride: the
// bus traffic one generator seed produces differs by ±8 % from the next,
// and a run that covers many of them is steadier than one that repeats
// one. Variant 0 is the seed itself, as multicube-sim -seed would run it.
func (w *desWorkload) passOn(tr *tracer, parent, variant int, cfg core.Config) passResult {
	gen := w.gen
	gen.Seed += uint64(variant) * desSeedStride
	res := passResult{attempted: 1}
	sp := tr.begin(parent, "des.pass")
	defer tr.end(sp)

	start := time.Now()
	s := tr.begin(sp, "core.New")
	m, err := core.New(cfg)
	tr.end(s)
	if err != nil {
		res.failf("core.New: %v", err)
		return res
	}
	s = tr.begin(sp, "workload.Run")
	rep := workload.Run(m, gen)
	tr.end(s)
	s = tr.begin(sp, "Machine.Metrics")
	mt := m.Metrics()
	tr.end(s)
	res.seconds = time.Since(start).Seconds()

	s = tr.begin(sp, "Machine.CheckInvariants")
	errs := m.CheckInvariants()
	tr.end(s)
	if len(errs) > 0 {
		res.failf("CheckInvariants: %d violations, first: %v", len(errs), errs[0])
	}
	procs := m.Processors()
	if want := uint64(procs * gen.Requests); rep.References != want {
		res.failf("references = %d, want %d", rep.References, want)
	}
	res.ops = float64(rep.References)
	res.digest = mt.String()
	res.exact = desExact(m, rep, mt)
	if m.Parallel() {
		res.exact["sim.runner_parallelism"] = m.Runner().Stats().Parallelism()
	}
	return res
}

// desExact derives the simulated statistics of one run. Every one of
// them is a pure function of the seed.
func desExact(m *core.Machine, rep workload.Report, mt core.Metrics) map[string]float64 {
	refs := float64(rep.References)
	txns := float64(rep.BusTransactions)
	busOps := float64(mt.RowBusOps + mt.ColBusOps)
	ex := map[string]float64{
		"sim_efficiency":                  rep.Efficiency(),
		"sim_elapsed_ms":                  float64(rep.Elapsed) / float64(sim.Millisecond),
		"sim.events_per_ref":              float64(m.Executed()) / refs,
		"bus.ops_per_ref":                 busOps / refs,
		"bus.row_util":                    mt.MeanRowUtil,
		"bus.col_util":                    mt.MeanColUtil,
		"coherence.invalidations_per_ref": float64(mt.Invalidations) / refs,
		"coherence.read_lat_ns":           float64(mt.Txns[coherence.READ].MeanLatency()),
		"coherence.readmod_lat_ns":        float64(mt.Txns[coherence.READMOD].MeanLatency()),
		"cache.l2_hit_ratio":              float64(mt.L2Hits) / float64(mt.L2Hits+mt.L2Misses),
		"memory.reads_per_ref":            float64(mt.MemoryReads) / refs,
	}
	if txns > 0 {
		ex["bus_ops_per_txn"] = busOps / txns
		ex["coherence.reissues_per_txn"] = float64(mt.Reissues+mt.MemoryReissues) / txns
	}
	// The simulator against the paper's own analytical model at the bus
	// request rate the run achieved: the only reference the repo holds.
	p := mva.Defaults(desN)
	p.RequestRate = rep.BusRate(m.Processors())
	if r, err := mva.Solve(p); err == nil {
		ex["mva_abs_err"] = math.Abs(rep.Efficiency() - r.Efficiency)
	}
	return ex
}

func (w *desWorkload) probes(p *prober, last passResult) map[string]float64 {
	refs := last.ops
	events := last.exact["sim.events_per_ref"] * refs
	busOps := last.exact["bus.ops_per_ref"] * refs
	out := map[string]float64{}

	eventS := p.nominal("sim.event", func() int { return probeKernel(p.n(2_000_000)) })
	opS := p.nominal("bus.op", func() int { return probeBus(p.n(500_000)) })
	out["sim.event_ns"] = eventS * 1e9
	out["bus.op_ns"] = opS * 1e9

	// The protocol driven directly: no generator, no core. What is left
	// of a transaction after the kernel events and bus operations it
	// caused are priced at their bare unit costs is the handlers' own
	// time, spread over the bus operations they handled.
	var ct cohTotals
	txnS := p.nominal("coherence.txn", func() int { ct = probeCoherence(p.n(1200)); return ct.txns })
	out["coherence.txn_ns"] = txnS * 1e9
	// A bus operation is delivered by one kernel event, which the event
	// count already prices; net it out so the layers do not overlap.
	busOnlyS := math.Max(opS-eventS, 0)
	selfS := (txnS*float64(ct.txns) - eventS*float64(ct.events) - busOnlyS*float64(ct.busOps)) / float64(ct.busOps)
	out["coherence.self_ns_per_op"] = selfS * 1e9

	hitS := p.nominal("core.hit_ref", func() int { return w.probeHitPath(p) })
	out["core.hit_ref_ns"] = hitS * 1e9
	buildS := p.nominal("core.build", func() int {
		n := p.n(20)
		for i := 0; i < n; i++ {
			if _, err := core.New(core.Config{N: desN}); err != nil {
				p.failf("core.New: %v", err)
			}
		}
		return n
	})
	out["core.build_ms"] = buildS * 1e3
	randS := p.nominal("workload.rand", func() int { return probeRand(p.n(2_000_000)) })
	out["workload.rand_ns"] = randS * 1e9
	out["mva.solve_us"] = 1e6 * p.nominal("mva.solve", func() int {
		n := p.n(2000)
		for i := 0; i < n; i++ {
			if _, err := mva.Solve(mva.Defaults(desN)); err != nil {
				p.failf("mva.Solve: %v", err)
			}
		}
		return n
	})

	pass := p.passNominal
	out["sim.est_share"] = eventS * events / pass
	out["bus.est_share"] = busOnlyS * busOps / pass
	out["coherence.est_share"] = selfS * busOps / pass
	out["core.unattributed_share"] = 1 - out["sim.est_share"] - out["bus.est_share"] - out["coherence.est_share"] -
		(randS*refs+buildS)/pass

	if w.runner {
		w.probeRunner(p, last, out)
	}
	return out
}

// probeKernel measures the bare event kernel: schedule one event and
// dispatch one, at the pending depth the workloads run at (one think
// timer or outstanding transaction per processor, plus bus deliveries).
func probeKernel(steps int) int {
	const depth = 96
	k := sim.NewKernel()
	rng := workload.NewRand(1)
	var fn func()
	fn = func() { k.After(sim.Time(1+rng.Intn(20_000)), fn) }
	for i := 0; i < depth; i++ {
		fn()
	}
	for i := 0; i < steps; i++ {
		k.Step()
	}
	return steps
}

// probePacket is a bus operation of the probe bus; owner re-requests
// when its operation is delivered, keeping every agent's request queued.
type probePacket struct{ owner int }

func (probePacket) Occupancy() sim.Time { return 50 * sim.Nanosecond }

type probeAgent struct {
	id   int
	left *int
}

func (a *probeAgent) Probe(b *bus.Bus, pkt bus.Packet) {}
func (a *probeAgent) Snoop(b *bus.Bus, pkt bus.Packet) {
	if pk := pkt.(*probePacket); pk.owner == a.id && *a.left > 0 {
		*a.left--
		b.Request(a.id, pk)
	}
}

// probeBus measures a bare bus under FCFS with eight agents that each
// keep one request queued: enqueue, grant, the delivery event, and the
// probe and snoop calls to all eight agents. It includes the one kernel
// event that delivers each operation.
func probeBus(ops int) int {
	const agents = desN
	k := sim.NewKernel()
	b := bus.New(k, "probe", bus.FIFO)
	left := ops - agents
	for i := 0; i < agents; i++ {
		b.Attach(&probeAgent{id: i, left: &left})
	}
	for i := 0; i < agents; i++ {
		b.Request(i, &probePacket{owner: i})
	}
	for k.Step() {
	}
	return int(b.Stats().Ops)
}

// cohTotals are the counts of one direct drive of the protocol.
type cohTotals struct{ txns, events, busOps int }

// probeCoherence drives coherence.NewSystem directly: every node reads
// and writes a 64-line shared set in a closed loop with the workload's
// think time and write share, so the transaction mix is the contended
// one of des-shared without the generator or the core layer above it.
func probeCoherence(perNode int) cohTotals {
	const lines = 64
	k := sim.NewKernel()
	sys, err := coherence.NewSystem(k, coherence.Config{N: desN})
	if err != nil {
		return cohTotals{}
	}
	rng := workload.NewRand(7)
	for r := 0; r < desN; r++ {
		for c := 0; c < desN; c++ {
			nd := sys.Node(topology.Coord{Row: r, Col: c})
			left := perNode
			var issue func()
			done := func(coherence.Result) {
				if left--; left > 0 {
					k.After(sim.Time(rng.Exp(float64(10*sim.Microsecond))), issue)
				}
			}
			issue = func() {
				line := cache.Line(rng.Intn(lines))
				if rng.Float64() < 0.3 {
					nd.Write(line, done)
				} else {
					nd.Read(line, done)
				}
			}
			k.After(sim.Time(rng.Exp(float64(10*sim.Microsecond))), issue)
		}
	}
	for k.Step() {
	}
	var t cohTotals
	for _, st := range sys.Stats() {
		t.txns += int(st.Count)
	}
	for i := 0; i < desN; i++ {
		t.busOps += int(sys.RowBus(i).Stats().Ops + sys.ColBus(i).Stats().Ops)
	}
	t.events = int(k.Executed())
	return t
}

// probeHitPath runs the generator with (next to) no shared references:
// after each processor's first touch of its 16 private lines every
// reference hits, so the run is kernel + generator + the core hit path
// with no bus traffic. The first-touch misses (at most 1 024 of the
// references) and the machine build are included.
func (w *desWorkload) probeHitPath(p *prober) int {
	m, err := core.New(core.Config{N: desN})
	if err != nil {
		p.failf("core.New: %v", err)
		return 0
	}
	gen := w.gen
	gen.PShared = 1e-12 // zero selects the generator's 0.5 default
	gen.Requests = p.n(8000)
	return int(workload.Run(m, gen).References)
}

// probeRand measures the generator's draws for one reference: think
// time, shared or private, line, word, read or write.
func probeRand(refs int) int {
	rng := workload.NewRand(3)
	var sink float64
	for i := 0; i < refs; i++ {
		sink += rng.Exp(10_000) + rng.Float64() + float64(rng.Intn(64)+rng.Intn(16)) + rng.Float64()
	}
	if sink == 0 {
		return 0
	}
	return refs
}

// probeRunner compares the sequential kernel with the partitioned
// runner on this workload: one worker (the cost of windows and lineage
// alone) and two (what this two-CPU host gains). Results must be
// identical to the sequential pass.
func (w *desWorkload) probeRunner(p *prober, last passResult, out map[string]float64) {
	nominal := map[int][]float64{} // workers → nominal seconds of each round
	for i, rounds := 0, p.n(3); i < rounds; i++ {
		for _, workers := range []int{0, 1, 2} {
			var res passResult
			s := p.around(fmt.Sprintf("sim.runner/parallel=%d", workers), func() float64 {
				res = w.passOn(nil, 0, 0, core.Config{N: desN, Parallel: workers})
				return res.seconds
			})
			nominal[workers] = append(nominal[workers], s)
			if par, ok := res.exact["sim.runner_parallelism"]; ok {
				out["sim.runner_parallelism"] = par
				delete(res.exact, "sim.runner_parallelism")
			}
			if res.failed > 0 || !sameExact(last, res) {
				p.failf("parallel=%d: results differ from the sequential kernel's %v", workers, res.errs)
			}
		}
	}
	out["sim.runner_overhead"] = median(nominal[1]) / median(nominal[0])
	out["sim.runner_speedup_w2"] = median(nominal[0]) / median(nominal[2])
}
