package workload

import (
	"context"
	"fmt"

	"multicube/internal/core"
	"multicube/internal/sim"
)

// GenConfig parameterizes the synthetic reference generator. Each
// processor runs a closed loop: think for a (optionally exponential)
// interval, then issue one word reference chosen between its private
// region and a shared hot set, read or write by PWrite. With the large
// (unbounded) snooping cache, private lines hit after first touch, so
// steady-state bus traffic comes from the shared set — exactly the
// regime the paper argues the machine will operate in ("nearly all the
// traffic on the buses will be generated by I/O and accesses to shared
// data").
type GenConfig struct {
	// Seed drives all randomness; identical seeds give identical runs.
	Seed uint64
	// Think is the mean think time between references.
	Think sim.Time
	// Exponential selects exponential think times (fixed otherwise).
	Exponential bool
	// SharedLines is the size of the machine-wide shared hot set.
	SharedLines int
	// PrivateLines is each processor's private working set, in lines.
	PrivateLines int
	// PShared is the probability a reference targets the shared set;
	// zero means none does.
	PShared float64
	// PWrite is the probability a reference is a write; zero means none
	// is.
	PWrite float64
	// Requests is the number of references per processor.
	Requests int
}

func (c *GenConfig) fillDefaults() {
	if c.Think == 0 {
		c.Think = 10 * sim.Microsecond
	}
	if c.SharedLines == 0 {
		c.SharedLines = 64
	}
	if c.PrivateLines == 0 {
		c.PrivateLines = 16
	}
	if c.Requests == 0 {
		c.Requests = 100
	}
}

// Report summarizes a generator run.
type Report struct {
	// References issued machine-wide (loads + stores).
	References uint64
	// BusTransactions completed (references that missed the caches).
	BusTransactions uint64
	// Elapsed simulated time.
	Elapsed sim.Time
	// ThinkTime and StallTime are summed over processors; a processor is
	// stalled from issue to completion of each reference.
	ThinkTime sim.Time
	StallTime sim.Time
	// Canceled reports that RunCtx's context was canceled before the
	// workload drained; counts and times then describe a partial run.
	Canceled bool
}

// Efficiency is the fraction of processor time spent thinking (useful
// work) — the paper's "effective speedup compared to a system with no
// bus or main memory latency".
func (r Report) Efficiency() float64 {
	total := r.ThinkTime + r.StallTime
	if total == 0 {
		return 1
	}
	return float64(r.ThinkTime) / float64(total)
}

// BusRate is the achieved bus-transaction rate in requests per
// millisecond per processor, the x axis of the paper's figures.
func (r Report) BusRate(processors int) float64 {
	if r.Elapsed == 0 {
		return 0
	}
	perProc := float64(r.BusTransactions) / float64(processors)
	return perProc / (float64(r.Elapsed) / float64(sim.Millisecond))
}

// ref is one reference of a processor's stream.
type ref struct {
	think sim.Time  // think interval preceding the issue
	addr  core.Addr // word address
	value uint64    // stored word (writes only)
	write bool
}

// gen draws one processor's reference stream, one reference at a time.
// The stream depends on nothing but the processor's seed, so drawing each
// reference when it is due yields the same sequence however the
// processors' draws interleave.
type gen struct {
	cfg                  *GenConfig
	rng                  Rand
	privBase, sharedBase core.Addr
	bw                   core.Addr // block size in words
}

func newGen(cfg *GenConfig, id, procs int, bw core.Addr) gen {
	return gen{
		cfg:        cfg,
		rng:        Rand{state: cfg.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15},
		privBase:   core.Addr(id) * core.Addr(cfg.PrivateLines) * bw,
		sharedBase: core.Addr(procs) * core.Addr(cfg.PrivateLines) * bw,
		bw:         bw,
	}
}

// next draws the next reference into r: think time, shared or private,
// line, word, read or write, and a write's value, in that order.
func (g *gen) next(r *ref) {
	cfg := g.cfg
	r.think = cfg.Think
	if cfg.Exponential {
		r.think = sim.Time(g.rng.Exp(float64(cfg.Think)))
	}
	if g.rng.Float64() < cfg.PShared {
		r.addr = g.sharedBase + core.Addr(g.rng.Intn(cfg.SharedLines))*g.bw
	} else {
		r.addr = g.privBase + core.Addr(g.rng.Intn(cfg.PrivateLines))*g.bw
	}
	r.addr += core.Addr(g.rng.Intn(int(g.bw)))
	r.write = g.rng.Float64() < cfg.PWrite
	if r.write {
		r.value = g.rng.Uint64()
	}
}

// References calls yield once for every reference Run issues under cfg
// on a machine of procs processors with blockWords-word blocks, without
// running one: reference j of every processor, in processor order,
// before reference j+1 of any. The streams are the ones Run consumes, so
// a trace built from these calls replays what the generator ran.
func References(cfg GenConfig, procs, blockWords int, yield func(proc int, write bool, addr uint64)) {
	cfg.fillDefaults()
	gens := make([]gen, procs)
	for id := range gens {
		gens[id] = newGen(&cfg, id, procs, core.Addr(blockWords))
	}
	var r ref
	for j := 0; j < cfg.Requests; j++ {
		for id := range gens {
			gens[id].next(&r)
			yield(id, r.write, uint64(r.addr))
		}
	}
}

// driver runs one processor's stream: it draws a reference when it
// schedules its think timer and issues it when the timer fires. Its
// callbacks are allocated once, in start — the per-reference hot path
// schedules one kernel event and allocates nothing else.
type driver struct {
	proc   *core.Processor
	k      *sim.Kernel
	rep    *Report
	gen    gen
	left   int // references not yet drawn
	r      ref // the reference the think timer will issue
	issued sim.Time

	issueFn  func()       // the think-timer event body
	finishFn func(uint64) // completion for both loads and stores
}

// start schedules the first think interval.
func (d *driver) start() {
	d.issueFn = d.issue
	d.finishFn = d.finish
	d.scheduleNext()
}

func (d *driver) scheduleNext() {
	if d.left == 0 {
		return
	}
	d.left--
	d.gen.next(&d.r)
	d.rep.ThinkTime += d.r.think
	d.k.After(d.r.think, d.issueFn)
}

func (d *driver) issue() {
	d.issued = d.k.Now()
	if d.r.write {
		d.proc.StoreAsyncObs(d.r.addr, d.r.value, d.finishFn)
	} else {
		d.proc.LoadAsync(d.r.addr, d.finishFn)
	}
}

func (d *driver) finish(uint64) {
	d.rep.StallTime += d.k.Now() - d.issued
	d.rep.References++
	d.scheduleNext()
}

// Run drives machine m with the synthetic workload until every processor
// has issued its references, then drains the machine and reports.
func Run(m *core.Machine, cfg GenConfig) Report {
	return RunCtx(context.Background(), m, cfg, nil)
}

// RunCtx is Run with cooperative cancellation and a progress hook for
// long-running service jobs: the kernel is driven in bounded batches,
// and between batches the context is consulted — a cancel abandons the
// remaining events and returns the partial Report with Canceled set —
// and progress, when non-nil, is called with the references completed
// and kernel events dispatched so far.
func RunCtx(ctx context.Context, m *core.Machine, cfg GenConfig, progress func(references, events uint64)) Report {
	cfg.fillDefaults()
	procs := m.Processors()
	bw := core.Addr(m.BlockWords())
	k := m.Kernel()

	var rep Report
	startTxns := busTxns(m)
	drivers := make([]driver, procs)
	for id := range drivers {
		drivers[id] = driver{proc: m.Processor(id), k: k, rep: &rep,
			gen: newGen(&cfg, id, procs, bw), left: cfg.Requests}
	}
	for id := range drivers {
		drivers[id].start()
	}

	// Drive the kernel in batches instead of one opaque m.Run() so the
	// context can stop a runaway job and progress stays observable. The
	// batch size trades cancellation latency against callback overhead;
	// at ~µs-scale events, 4096 steps is milliseconds of wall time.
	for k.Pending() > 0 {
		if ctx != nil && ctx.Err() != nil {
			rep.Canceled = true
			break
		}
		for i := 0; i < 4096 && k.Pending() > 0; i++ {
			k.Step()
		}
		if progress != nil {
			progress(rep.References, k.Executed())
		}
	}
	rep.Elapsed = k.Now()
	rep.BusTransactions = busTxns(m) - startTxns
	return rep
}

func busTxns(m *core.Machine) uint64 {
	var total uint64
	for _, st := range m.System().Stats() {
		total += st.Count
	}
	return total
}

// Describe renders the configuration for reports.
func (c GenConfig) Describe() string {
	c.fillDefaults()
	return fmt.Sprintf("think=%v shared=%d/%0.0f%% write=%0.0f%% reqs=%d",
		c.Think, c.SharedLines, c.PShared*100, c.PWrite*100, c.Requests)
}
