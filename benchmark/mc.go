package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"multicube/internal/cache"
	"multicube/internal/coherence"
	"multicube/internal/mc"
	"multicube/internal/memmodel"
	"multicube/internal/sim"
	"multicube/internal/statespace"
	"multicube/internal/workload"
)

// mcWorkload exhausts one model-checking preset with the sequential
// explorer and a visited store forced to spill to disk.
type mcWorkload struct {
	preset    string
	memBudget int64

	sc      mc.Scenario
	scratch string
	// wantStates and wantRuns come from one in-RAM exploration made
	// during set-up: spilling must not change what is explored.
	wantStates, wantRuns int
	last                 mc.Result
}

const mcMaxStates = 2_000_000

func (w *mcWorkload) setup(seed uint64, scratch string) error {
	// The preset is a fixed program; the seed does not enter.
	sc, err := mc.Preset(w.preset)
	if err != nil {
		return err
	}
	w.sc, w.scratch = sc, scratch
	// The in-RAM reference run is also the warm-up.
	ref, err := mc.Explore(sc, mc.Options{MaxStates: mcMaxStates})
	if err != nil {
		return err
	}
	if !ref.Exhausted || ref.Violation != nil {
		return fmt.Errorf("in-RAM reference exploration: exhausted=%v violation=%v", ref.Exhausted, ref.Violation)
	}
	w.wantStates, w.wantRuns = ref.States, ref.Runs
	return nil
}

func (w *mcWorkload) pass(tr *tracer, parent, _ int) passResult {
	res := passResult{attempted: 1}
	sp := tr.begin(parent, "mc.pass")
	defer tr.end(sp)
	dir, err := tempDir(w.scratch, "mc-store-")
	if err != nil {
		res.failf("store dir: %v", err)
		return res
	}
	defer os.RemoveAll(dir)

	opts := mc.Options{MaxStates: mcMaxStates, StoreDir: dir, MemBudget: w.memBudget}
	var runTimes []float64
	var steps uint64
	explore := tr.begin(sp, "mc.Explore")
	if tr != nil {
		// Instrument fires when a from-scratch execution's machine has
		// been built, Progress when the execution and its bookkeeping
		// are done: the pair brackets one run, and what is left of
		// Explore outside the runs is frontier handling and machine
		// construction. Both hooks are passive; the finished run's kernel
		// says how many steps it took.
		var run int
		var sys *coherence.System
		var lastStart time.Time
		opts.Instrument = func(s *coherence.System) {
			now := time.Now()
			if !lastStart.IsZero() {
				runTimes = append(runTimes, now.Sub(lastStart).Seconds())
			}
			lastStart, sys = now, s
			run = tr.begin(explore, "mc.run")
		}
		opts.Progress = func(mc.Progress) {
			tr.end(run)
			if sys != nil {
				steps += sys.Kernel().Executed()
			}
			run, sys = 0, nil
		}
	}
	start := time.Now()
	r, err := mc.Explore(w.sc, opts)
	res.seconds = time.Since(start).Seconds()
	tr.end(explore)
	w.last = r

	switch {
	case err != nil:
		res.failf("mc.Explore: %v", err)
	case !r.Exhausted || r.Violation != nil || r.SCVerdict != "ok":
		res.failf("exhausted=%v violation=%v sc=%q, want an exhausted clean SC-ok search", r.Exhausted, r.Violation, r.SCVerdict)
	case r.States != w.wantStates || r.Runs != w.wantRuns:
		res.failf("spilling search visited %d states in %d runs, in-RAM reference %d in %d", r.States, r.Runs, w.wantStates, w.wantRuns)
	}
	res.ops = float64(r.States)
	res.exact = map[string]float64{
		"mc.states":             float64(r.States),
		"mc.runs":               float64(r.Runs),
		"mc.sc_checks":          float64(r.SCChecks),
		"mc.runs_per_state":     float64(r.Runs) / float64(r.States),
		"mc.fp_recompute_ratio": float64(r.FPRecomputes) / float64(r.FPRecomputes+r.FPIncremental),
		"statespace.spills":     float64(r.Spills),
		"statespace.disk_bytes": float64(r.DiskBytes),
	}
	if len(runTimes) > 0 {
		sort.Float64s(runTimes)
		res.host = map[string]float64{
			"mc.run_us_p50": percentile(runTimes, 0.50) * 1e6,
			"mc.run_us_p99": percentile(runTimes, 0.99) * 1e6,
		}
		res.counts = map[string]float64{"mc.steps_per_run": float64(steps) / float64(r.Runs)}
	}
	return res
}

func (w *mcWorkload) probes(p *prober, last passResult) map[string]float64 {
	out := map[string]float64{}
	n := w.sc.N
	ccfg := coherence.Config{N: n, BlockWords: w.sc.BlockWords}

	buildS := p.nominal("coherence.build", func() int {
		iters := p.n(3000)
		for i := 0; i < iters; i++ {
			if _, err := coherence.NewSystem(sim.NewKernel(), ccfg); err != nil {
				p.failf("coherence.NewSystem: %v", err)
			}
		}
		return iters
	})
	out["coherence.build_us"] = buildS * 1e6

	fp := func(name string, incremental bool) float64 {
		var points int
		return p.around(name, func() (seconds float64) {
			seconds, points = w.probeFP(ccfg, p.n(300), incremental)
			return seconds
		}) / float64(points)
	}
	fpS, fpScratchS := fp("coherence.fp", true), fp("coherence.fp_scratch", false)
	out["coherence.fp_ns"] = fpS * 1e9
	out["coherence.fp_scratch_ns"] = fpScratchS * 1e9

	replayS := p.nominal("mc.replay", func() int {
		steps := 0
		for i, iters := 0, p.n(300); i < iters; i++ {
			rr, err := mc.Replay(w.sc, nil, mc.Options{})
			if err != nil {
				p.failf("mc.Replay: %v", err)
				return 0
			}
			steps += rr.Steps
		}
		return steps
	})
	out["mc.replay_step_ns"] = replayS * 1e9

	r := w.last
	// The explorer consults the visited store once per choice point, and
	// a choice point looks up every node and memory hash once.
	visits := float64(r.FPRecomputes+r.FPIncremental) / float64(n*n+n)
	pNew := float64(r.States) / visits
	ramS := p.nominal("statespace.visit_ram", func() int { return w.probeVisit(p, int(visits), pNew, false) })
	spillS := p.nominal("statespace.visit_spill", func() int { return w.probeVisit(p, int(visits), pNew, true) })
	out["statespace.visit_ns_ram"] = ramS * 1e9
	out["statespace.visit_ns_spill"] = spillS * 1e9

	out["memmodel.check_us"] = 1e6 * p.nominal("memmodel.check", func() int { return probeMemmodel(p) })

	pass := p.passNominal
	out["mc.est_replay_share"] = replayS * last.counts["mc.steps_per_run"] * float64(r.Runs) / pass
	out["mc.est_fp_share"] = fpS * visits / pass
	out["mc.est_build_share"] = buildS * float64(r.Runs) / pass
	out["mc.unattributed_share"] = 1 - out["mc.est_replay_share"] - out["mc.est_fp_share"] - out["mc.est_build_share"] -
		spillS*visits/pass
	out["coherence.est_share"] = out["mc.est_fp_share"] + out["mc.est_build_share"]
	return out
}

// probeFP drives the scenario's programs on a bare coherence.System (no
// explorer) and fingerprints the machine after every kernel step the way
// the explorer does at a choice point: the minimum over the admissible
// row and column relabelings. incremental uses the component-hash cache
// (BeginPoint + FPRC); otherwise every relabeling is hashed from scratch
// (FingerprintRC). It returns the seconds spent fingerprinting — each
// point is timed with its own pair of clock reads — and the points taken.
func (w *mcWorkload) probeFP(ccfg coherence.Config, machines int, incremental bool) (seconds float64, points int) {
	n := ccfg.N
	fixed := make([]bool, n)
	for _, pr := range w.sc.Procs {
		for _, op := range pr.Ops {
			fixed[op.Line%uint64(n)] = true // a column relabeling must fix every home column in use
		}
	}
	rows := permutations(n, make([]bool, n))
	cols := permutations(n, fixed)
	rowInv, colInv := inverses(rows), inverses(cols)

	for i := 0; i < machines; i++ {
		k := sim.NewKernel()
		sys, err := coherence.NewSystem(k, ccfg)
		if err != nil {
			break
		}
		for _, pr := range w.sc.Procs {
			nd, ops := sys.Node(pr.At), pr.Ops
			var issue func(step int)
			issue = func(step int) {
				if step == len(ops) {
					return
				}
				next := func(coherence.Result) { issue(step + 1) }
				if ops[step].Kind == mc.OpWrite {
					nd.Write(cache.Line(ops[step].Line), next)
				} else {
					nd.Read(cache.Line(ops[step].Line), next)
				}
			}
			issue(0)
		}
		fpc := coherence.NewFPCache(sys)
		for k.Step() {
			start := time.Now()
			best := ^uint64(0)
			if incremental {
				fpc.BeginPoint(nil)
			}
			for ri := range rows {
				for ci := range cols {
					var fp uint64
					if incremental {
						fp = fpc.FPRC(rows[ri], rowInv[ri], cols[ci], colInv[ci])
					} else {
						fp = sys.FingerprintRC(rows[ri], cols[ci], nil)
					}
					if fp < best {
						best = fp
					}
				}
			}
			seconds += time.Since(start).Seconds()
			fpSink ^= best
			points++
		}
	}
	return seconds, max(points, 1)
}

// fpSink keeps the probe's fingerprints live.
var fpSink uint64

// permutations enumerates the relabelings of n indices that fix every
// index marked in fixed.
func permutations(n int, fixed []bool) [][]int {
	var free []int
	for i := 0; i < n; i++ {
		if !fixed[i] {
			free = append(free, i)
		}
	}
	var out [][]int
	var rec func(rest, acc []int)
	rec = func(rest, acc []int) {
		if len(rest) == 0 {
			p := make([]int, n)
			for i := range p {
				p[i] = i
			}
			for i, idx := range free {
				p[idx] = acc[i]
			}
			out = append(out, p)
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			rec(next, append(acc[:len(acc):len(acc)], rest[i]))
		}
	}
	rec(free, nil)
	return out
}

func inverses(perms [][]int) [][]int {
	out := make([][]int, len(perms))
	for i, p := range perms {
		out[i] = make([]int, len(p))
		for phys, canon := range p {
			out[i][canon] = phys
		}
	}
	return out
}

// probeVisit replays a seeded fingerprint stream with the workload's
// share of first visits into a visited store, unbounded or under the
// workload's memory budget (so it spills). Sleep sets are empty, so a
// repeat visit is the cheapest kind (OutcomeSeen).
func (w *mcWorkload) probeVisit(p *prober, visits int, pNew float64, spill bool) int {
	cfg := statespace.Config{}
	if spill {
		dir, err := tempDir(p.scratch, "visit-")
		if err != nil {
			p.failf("visit dir: %v", err)
			return 0
		}
		defer os.RemoveAll(dir)
		cfg = statespace.Config{Dir: dir, MemBudget: w.memBudget}
	}
	st, err := statespace.Open(cfg)
	if err != nil {
		p.failf("statespace.Open: %v", err)
		return 0
	}
	defer st.Close()
	rng := workload.NewRand(11)
	seen := make([]uint64, 0, visits)
	for i := 0; i < visits; i++ {
		var fp uint64
		if len(seen) == 0 || rng.Float64() < pNew {
			fp = rng.Uint64()
			seen = append(seen, fp)
		} else {
			fp = seen[rng.Intn(len(seen))]
		}
		st.Visit(fp, nil, mcMaxStates)
	}
	if err := st.Err(); err != nil {
		p.failf("statespace: %v", err)
	}
	return visits
}

// probeMemmodel checks one sequentially consistent history per litmus
// test of the library: the threads' operations interleaved round-robin
// against a plain memory.
func probeMemmodel(p *prober) int {
	var hs []*memmodel.History
	for _, l := range memmodel.LitmusTests() {
		h := memmodel.NewHistory()
		mem := map[uint64]uint64{}
		next := uint64(1)
		for step := 0; ; step++ {
			any := false
			for proc, ops := range l.Procs {
				if step >= len(ops) {
					continue
				}
				any = true
				addr := uint64(ops[step].Var)
				if ops[step].Write {
					h.Write(proc, addr, mem[addr], next)
					mem[addr] = next
					next++
				} else {
					h.Read(proc, addr, mem[addr])
				}
			}
			if !any {
				break
			}
		}
		hs = append(hs, h)
	}
	checks := 0
	for i, iters := 0, p.n(200); i < iters; i++ {
		for _, h := range hs {
			if r := memmodel.Check(h, memmodel.Options{}); r.Verdict != memmodel.VerdictOK {
				p.failf("memmodel.Check on a sequential history: %v %s", r.Verdict, r.Reason)
				return 0
			}
			checks++
		}
	}
	return checks
}
