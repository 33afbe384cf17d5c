package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"multicube/internal/sim"
	"multicube/internal/workload"
)

// testScale shrinks probes and calibration readings; the workloads below
// are the real ones at about 1/50 of their size.
const testScale = 50

func smallWorkloads() map[string]bench {
	gen := workload.GenConfig{Think: 10 * sim.Microsecond, Exponential: true, SharedLines: 64, PrivateLines: 16, PWrite: 0.3}
	shared, private := gen, gen
	shared.PShared, shared.Requests = 0.5, 60
	private.PShared, private.Requests = 0.01, 400
	return map[string]bench{
		"des-shared":    &desWorkload{gen: shared},
		"des-private":   &desWorkload{gen: private, runner: true},
		"mc-deep-spill": &mcWorkload{preset: "litmus-corr", memBudget: 4096},
		"farm-mix":      &farmWorkload{clients: 2, perClient: 30, pool: 3, maxStates: 300},
	}
}

func smallOptions(t *testing.T, name string, trace bool) options {
	return options{name: name, seed: 1, passes: 2, setupReps: 1, trace: trace, scratch: t.TempDir(), scale: testScale}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestEveryMetricIsEmitted runs all four workloads, untraced and traced,
// and holds what they emit against the metric tables.
func TestEveryMetricIsEmitted(t *testing.T) {
	small := smallWorkloads()
	for _, def := range workloads {
		w, ok := small[def.name]
		if !ok {
			t.Fatalf("no small version of workload %s", def.name)
		}
		for _, trace := range []bool{false, true} {
			rep, err := measure(w, smallOptions(t, def.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d errors=%v", def.name, trace, rep.Correct, rep.Failed, rep.Attempted, rep.Errors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, table has %d", def.name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", def.name, trace, d.Name)
				case m.Unit != d.Unit || m.Unit == "":
					t.Errorf("%s: metric %s has unit %q, want %q", def.name, d.Name, m.Unit, d.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, d.Name, m.Value)
				}
			}
			if trace && (rep.Spans == nil || len(rep.Spans.Rows) == 0) {
				t.Errorf("%s: traced run recorded no spans", def.name)
			}

			var out bytes.Buffer
			if err := printResultLine(&out, rep); err != nil {
				t.Fatal(err)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(out.Bytes(), &line); err != nil {
				t.Fatalf("result line is not one JSON object: %v", err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", reflect.ValueOf(line).MapKeys())
			}
		}
	}
}

// TestExactMetricsRepeat makes two passes of every workload and compares
// their exact metrics directly.
func TestExactMetricsRepeat(t *testing.T) {
	for name, w := range smallWorkloads() {
		if err := w.setup(1, t.TempDir()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, b := w.pass(nil, 0, 0), w.pass(nil, 0, 0)
		if len(a.exact) == 0 {
			t.Errorf("%s: no exact metrics", name)
		}
		if !sameExact(a, b) {
			t.Errorf("%s: exact metrics differ between two passes:\n%v\n%v", name, a.exact, b.exact)
		}
		for k := range a.exact {
			if d, ok := findMetric(perLayer, k); !ok || !d.Exact {
				t.Errorf("%s: %s is compared exactly but not marked exact in the table", name, k)
			}
		}
	}
}

func TestCalibrationChecksum(t *testing.T) {
	if got := calKernel(calSteps); got != calChecksum {
		t.Fatalf("calibration kernel returned %d, pinned %d: the kernel changed, which starts a new baseline", got, calChecksum)
	}
}

// brokenMC is the model-checking workload with its expectation off by
// one state: every pass must then count as failed.
type brokenMC struct{ *mcWorkload }

func (b brokenMC) setup(seed uint64, scratch string) error {
	err := b.mcWorkload.setup(seed, scratch)
	b.wantStates++
	return err
}

func TestBrokenCheckFails(t *testing.T) {
	w := brokenMC{smallWorkloads()["mc-deep-spill"].(*mcWorkload)}
	rep, err := measure(w, smallOptions(t, "mc-deep-spill", true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Errorf("correct=%v failed=%d with a wrong expected state count", rep.Correct, rep.Failed)
	}
	if fr := rep.Metrics["fail_ratio"].Value; fr <= 0 {
		t.Errorf("fail_ratio = %v, want > 0", fr)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package
// and to the limits of the file's contract.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the table", len(file.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, w := range file.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: file has %q (%q), table has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the table", kind, len(got), len(want))
		}
		for i, m := range got {
			unique(m.Name)
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %d: file has %+v, table has %+v", kind, i, m, d)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound in the file and the table must agree and lie in (0, 0.25]", kind, m.Name)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	if _, ok := findMetric(endToEnd, "setup_s"); !ok {
		t.Error("end_to_end must contain setup_s")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "time_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_sec", Better: "higher", Bound: 0.10}
	tight := func(v float64) summary {
		return summarize("s", []float64{v * 0.99, v, v * 1.01, v * 1.005, v * 0.995})
	}
	wide := func(v float64) summary {
		return summarize("s", []float64{v * 0.7, v * 0.85, v, v * 1.15, v * 1.3})
	}
	for _, c := range []struct {
		name string
		m    metricDef
		a, b summary
		want string
	}{
		{"equal", lower, tight(1), tight(1.02), verdictSame},
		{"slower", lower, tight(1), tight(1.2), verdictWorse},
		{"faster", lower, tight(1), tight(0.8), verdictBetter},
		{"more throughput", higher, tight(100), tight(120), verdictBetter},
		{"less throughput", higher, tight(100), tight(80), verdictWorse},
		{"noisy and overlapping", lower, wide(1), wide(1.2), verdictUnresolved},
		{"noisy but far apart", lower, wide(1), wide(0.3), verdictBetter},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
