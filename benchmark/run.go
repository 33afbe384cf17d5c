package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// bench is one of the benchmark's workloads. The runner owns the
// repetition, the calibration and the reporting; a workload owns its
// inputs, its timed section, its correctness checks and the unit-cost
// probes of the layers it exercises.
type bench interface {
	// setup makes the inputs from the seed, creates what the passes need
	// under scratch, and runs one untimed warm-up pass so caches are full
	// and lazy initialisation is done before anything is timed.
	setup(seed uint64, scratch string) error
	// pass runs the timed section once, on the variant-th member of the
	// family of inputs the seed stands for (a workload whose work does
	// not depend on the seed has one member). With a non-nil tracer it
	// records spans under parent around every call into a layer.
	pass(tr *tracer, parent, variant int) passResult
	// probes measures, in the traced run, the unit costs of the layers
	// this workload exercises and derives the per-layer estimates from
	// them and from last, the traced pass.
	probes(p *prober, last passResult) map[string]float64
}

// passResult is what one pass reports.
type passResult struct {
	// seconds is the raw wall time of the timed section.
	seconds float64
	// ops is the work completed: references, states or requests.
	ops float64
	// attempted and failed count checked operations: the pass itself for
	// the single-threaded engines, every request for the farm.
	attempted, failed int
	errs              []string
	// exact holds the simulated statistics and counts. They, and digest
	// (any further output that must repeat), are compared with the first
	// pass on the same variant: a pass that differs is a failed
	// operation.
	exact  map[string]float64
	digest string
	// host holds raw host-time readings of this pass other than its
	// length (latency percentiles and the like). They are reported scaled
	// by the calibration of the pass they belong to.
	host map[string]float64
	// counts holds counters that may legitimately differ between passes
	// (the cache-tier split of hits under concurrent clients).
	counts map[string]float64
}

func (r *passResult) failf(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// calClock takes calibration readings and converts raw host time to
// nominal time with the two readings adjacent to the measurement.
type calClock struct {
	steps    int // calSteps, or fewer in the package's tests
	readings []float64
	bad      bool // a reading's checksum did not match
}

func (c *calClock) read() float64 {
	ms, ok := calibrate(c.steps)
	if !ok {
		c.bad = true
	}
	c.readings = append(c.readings, ms)
	return ms
}

// around runs fn between two readings and returns the nominal equivalent
// of the raw seconds fn reports. The reading taken after one measurement
// serves as the reading before the next.
func (c *calClock) around(fn func() float64) (raw, nominal float64) {
	if len(c.readings) == 0 {
		// The first reading of a process pays for page faults and heap
		// growth and comes out a third too high: take it and drop it.
		calibrate(c.steps)
		c.read()
	}
	before := c.readings[len(c.readings)-1]
	raw = fn()
	after := c.read()
	return raw, raw * calNominalMS / ((before + after) / 2)
}

// options are the settings of one run of one workload.
type options struct {
	name      string
	seed      uint64
	passes    int
	setupReps int
	trace     bool
	scratch   string
	// scale divides the iteration counts of the unit-cost probes and of
	// the calibration kernel; it is 1 except in the package's own tests.
	scale int
}

// report is the outcome of one run of one workload, as written to -out.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Passes    int                `json:"passes"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// CalMS are the calibration readings in the order taken, so a reader
	// can undo the normalisation.
	CalMS []float64 `json:"cal_ms"`
	Spans *spanDump `json:"spans,omitempty"`
}

const maxReportedErrors = 8

func (r *report) absorb(p passResult) {
	r.Attempted += p.attempted
	r.Failed += min(p.failed, p.attempted) // one operation can fail several checks
	for _, e := range p.errs {
		if len(r.Errors) < maxReportedErrors {
			r.Errors = append(r.Errors, e)
		}
	}
}

// sameExact reports whether p repeats first, an earlier pass on the same
// input, exactly.
func sameExact(first, p passResult) bool {
	return p.digest == first.digest && reflect.DeepEqual(p.exact, first.exact)
}

// measure runs one workload: the end-to-end metrics with tracing off, or
// the per-layer metrics from a traced pass and the unit-cost probes.
func measure(w bench, o options) (*report, error) {
	rep := &report{Workload: o.name, Seed: o.seed, Trace: o.trace, Passes: o.passes, Metrics: map[string]summary{}}
	cal := &calClock{steps: calSteps / o.scale}

	// Set-up is repeated and its median reported, because a single
	// reading of a one-off is all noise. (Set-up leaves nothing behind
	// that a repetition would have to release: every pass makes and
	// removes its own temporary directory.)
	var setupRaw, setupNom []float64
	for i := 0; i < o.setupReps; i++ {
		var err error
		raw, nom := cal.around(func() float64 {
			start := time.Now()
			err = w.setup(o.seed, o.scratch)
			return time.Since(start).Seconds()
		})
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.name, err)
		}
		setupRaw = append(setupRaw, raw)
		setupNom = append(setupNom, nom)
	}

	// The timed passes, tracing off. Passes come in pairs on one input
	// variant, so that every variant's exact metrics are seen to repeat
	// while the run as a whole covers many variants: the amount of work a
	// seed stands for then varies little from seed to seed. The traced
	// run stays on variant 0, whose exact metrics it reports.
	var passes []passResult
	var raw, nominal []float64
	firstOn := map[int]int{} // variant → its first pass
	for i := 0; i < o.passes; i++ {
		variant := i / 2
		if o.trace {
			variant = 0
		}
		var p passResult
		r, nom := cal.around(func() float64 {
			p = w.pass(nil, 0, variant)
			return p.seconds
		})
		if first, seen := firstOn[variant]; !seen {
			firstOn[variant] = i
		} else if !sameExact(passes[first], p) {
			p.failf("pass %d: exact metrics differ from pass %d on the same input", i, first)
		}
		rep.absorb(p)
		passes = append(passes, p)
		raw = append(raw, r)
		nominal = append(nominal, nom)
	}

	if !o.trace {
		perSec := make([]float64, len(nominal))
		for i, s := range nominal {
			perSec[i] = passes[i].ops / s
		}
		setup := summarize("s", setupNom)
		setup.RawMedian = median(setupRaw)
		t := summarize("s", nominal)
		t.RawMedian, t.RawSamples = median(raw), raw
		rep.Metrics["setup_s"] = setup
		rep.Metrics["time_s"] = t
		rep.Metrics["ops_per_sec"] = summarize("1/s", perSec)
	} else if err := traceRun(w, o, cal, rep, passes, raw, nominal); err != nil {
		return nil, err
	}
	if cal.bad {
		rep.Failed++
		rep.Attempted++
		rep.Errors = append(rep.Errors, "calibration checksum mismatch")
	}
	rep.CalMS = cal.readings
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// traceRun follows the untraced passes with one pass between allocator
// readings, one traced pass and the workload's unit-cost probes, and
// fills in every per-layer metric.
func traceRun(w bench, o options, cal *calClock, rep *report, passes []passResult, raw, nominal []float64) error {
	peakRSS := peakRSSMiB() // before the probes add their own memory
	before := readRuntime()
	counted := w.pass(nil, 0, 0)
	after := readRuntime()
	rep.absorb(counted)

	tr := newTracer()
	root := tr.begin(0, o.name)
	var traced passResult
	tracedRaw, tracedNom := cal.around(func() float64 {
		traced = w.pass(tr, root, 0)
		return traced.seconds
	})
	if !sameExact(passes[0], traced) {
		traced.failf("traced pass: exact metrics differ from the first pass")
	}
	rep.absorb(traced)

	vals := map[string]float64{}
	for k, v := range traced.exact {
		vals[k] = v
	}
	for k, v := range traced.counts {
		vals[k] = v
	}
	// A host-time reading is the median over the untraced passes, each
	// scaled like the pass it belongs to; one that only a traced pass can
	// take comes from the traced pass.
	for k, v := range traced.host {
		var xs []float64
		for i, p := range passes {
			if x, ok := p.host[k]; ok {
				xs = append(xs, x*nominal[i]/raw[i])
			}
		}
		if len(xs) == 0 {
			xs = []float64{v * tracedNom / tracedRaw}
		}
		vals[k] = median(xs)
	}

	pr := &prober{tr: tr, root: root, cal: cal, scratch: o.scratch, scale: o.scale, passNominal: median(nominal)}
	for k, v := range w.probes(pr, traced) {
		vals[k] = v
	}
	tr.end(root)
	rep.Failed += pr.failed
	rep.Attempted += pr.failed
	rep.Errors = append(rep.Errors, pr.errs...)

	vals["go.allocs_per_op"] = float64(after.mallocs-before.mallocs) / counted.ops
	vals["go.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / counted.ops
	if total := after.cpuTotal - before.cpuTotal; total > 0 {
		vals["go.gc_cpu_share"] = (after.cpuGC - before.cpuGC) / total
	}
	cals := summarize("ms", cal.readings)
	vals["bench.cal_ms"] = cals.Value
	vals["bench.cal_spread"] = cals.spread()
	vals["bench.raw_time_s"] = median(raw)
	vals["bench.trace_overhead"] = tracedRaw / median(raw)
	vals["fail_ratio"] = float64(rep.Failed) / float64(rep.Attempted)
	vals["peak_rss_mb"] = peakRSS

	for _, d := range perLayer {
		v := vals[d.Name]
		rep.Metrics[d.Name] = summary{Value: v, Unit: d.Unit, Q1: v, Q3: v, N: 1}
		delete(vals, d.Name)
	}
	for k := range vals {
		return fmt.Errorf("%s: metric %q is not in the per-layer table", o.name, k)
	}
	rep.Spans = tr.dump()
	return nil
}

// peakRSSMiB is the process's high-water resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type runtimeReading struct {
	mallocs, allocBytes uint64
	cpuGC, cpuTotal     float64
}

func readRuntime() runtimeReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	r := runtimeReading{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		r.cpuGC, r.cpuTotal = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return r
}

// prober is what a workload's probes use: calibrated timing of an
// isolated call into a layer, recorded as a span.
type prober struct {
	tr      *tracer
	root    int
	cal     *calClock
	scratch string
	scale   int
	// passNominal is the nominal length of this run's untraced passes,
	// the denominator of every estimated share.
	passNominal float64
	failed      int
	errs        []string
}

// around runs fn, which returns the raw seconds it measured, between
// calibration readings and under a span, and returns nominal seconds.
func (p *prober) around(name string, fn func() float64) float64 {
	_, nom := p.cal.around(func() float64 {
		sp := p.tr.begin(p.root, "probe:"+name)
		defer p.tr.end(sp)
		return fn()
	})
	return nom
}

// nominal times fn, which returns how many operations it performed, and
// returns nominal seconds per operation.
func (p *prober) nominal(name string, fn func() int) float64 {
	var n int
	nom := p.around(name, func() float64 {
		start := time.Now()
		n = fn()
		return time.Since(start).Seconds()
	})
	if n == 0 {
		return 0
	}
	return nom / float64(n)
}

// n scales a probe's full iteration count.
func (p *prober) n(full int) int { return max(full/p.scale, 1) }

func (p *prober) failf(format string, args ...any) {
	p.failed++
	p.errs = append(p.errs, fmt.Sprintf(format, args...))
}

// tempDir makes a fresh directory under the scratch root.
func tempDir(scratch, pattern string) (string, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(scratch, pattern)
}
