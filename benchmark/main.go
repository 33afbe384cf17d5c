// Command benchmark is the repository's benchmark: four workloads over
// the timed simulator, the model checker and the job farm, reported as
// calibrated host-time metrics, exact simulated metrics and per-layer
// unit costs. README.md in this directory describes the workloads, the
// metrics and the method; BENCHMARK.json at the repository root is the
// contract later changes are held to.
//
//	go run ./benchmark [-seed 1] [-out FILE]       every workload, each in its own process
//	go run ./benchmark -workload NAME -trace 0|1   one workload, in this process
//	go run ./benchmark -compare A.json B.json      two -out files against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"multicube/internal/sim"
	"multicube/internal/workload"
)

// workloadDef is one line of the workload table. The names are referred
// to by later changes: treat them as API.
type workloadDef struct {
	name string
	why  string
	// passSeconds is what one pass and its calibration reading take on
	// the reference host. It is frozen: together with -seconds it fixes
	// the pass count, which therefore is the same on every commit and
	// never adapts to how fast the code under test has become.
	passSeconds float64
	make        func() bench
}

var workloads = []workloadDef{
	{
		name:        "des-shared",
		why:         "Half of all references go to 64 shared lines: about two bus operations per reference, so coherence handlers and bus arbitration do most of the work.",
		passSeconds: 0.66,
		make: func() bench {
			return &desWorkload{gen: workload.GenConfig{
				Think: 10 * sim.Microsecond, Exponential: true, SharedLines: 64, PrivateLines: 16,
				PShared: 0.5, PWrite: 0.3, Requests: 3000,
			}}
		},
	},
	{
		name:        "des-private",
		why:         "Same machine and generator with 1 % shared references: nearly every reference hits, so the event kernel, the generator and the core hit path dominate and coherence does little.",
		passSeconds: 0.62,
		make: func() bench {
			return &desWorkload{runner: true, gen: workload.GenConfig{
				Think: 10 * sim.Microsecond, Exponential: true, SharedLines: 64, PrivateLines: 16,
				PShared: 0.01, PWrite: 0.3, Requests: 20000,
			}}
		},
	},
	{
		name:        "mc-deep-spill",
		why:         "Exhausts litmus-coww-3x3 (7 895 states, 17 630 from-scratch runs) with the visited store forced to spill: prefix replay, canonical fingerprints under row and column symmetry, SC check.",
		passSeconds: 1.65,
		make:        func() bench { return &mcWorkload{preset: "litmus-coww-3x3", memBudget: 65536} },
	},
	{
		name:        "farm-mix",
		why:         "The job server end to end over HTTP: two closed-loop clients, 1 500 submissions per pass of which 24 execute, the rest hit the memory or disk cache tier; reads beside fsynced writes.",
		passSeconds: 2.50,
		make:        func() bench { return &farmWorkload{clients: 2, perClient: 750, pool: 12, maxStates: 1500} },
	},
}

const (
	// defaultSeconds is run_seconds of BENCHMARK.json.
	defaultSeconds = 15
	// setupShare is the length of the repeated set-ups as a share of the
	// timed section; minSetupReps is how often set-up is repeated at least.
	setupShare   = 0.25
	minSetupReps = 3
	// tracePasses is how many untraced passes precede the traced one in
	// a traced run; they give the traced pass its reference.
	tracePasses = 3
	// benchProcs is GOMAXPROCS of every workload process.
	benchProcs = 2
)

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func (d workloadDef) passes(seconds int) int {
	return max(int(float64(seconds)/d.passSeconds), 3)
}

// setupReps is how often set-up (about as long as a pass) is repeated
// for its median: as often as fits a quarter of the timed section.
func (d workloadDef) setupReps(seconds int) int {
	return max(int(setupShare*float64(seconds)/d.passSeconds), minSetupReps)
}

// document is the -out file: the host it was taken on and one report per
// workload and tracing mode.
type document struct {
	Schema  int       `json:"schema"`
	Host    hostInfo  `json:"host"`
	Seed    uint64    `json:"seed"`
	Seconds int       `json:"seconds"`
	Runs    []*report `json:"runs"`
}

func (d *document) find(name string, trace bool) *report {
	for _, r := range d.Runs {
		if r.Workload == name && r.Trace == trace {
			return r
		}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed    = flag.Uint64("seed", 1, "workload seed: generator streams, farm schedules and swarm base seeds")
		seconds = flag.Int("seconds", defaultSeconds, "length of the timed section on the reference host; fixes the pass count")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass and unit-cost probes")
		out     = flag.String("out", "", "write the full report, with spans, to this file (default benchmark/out/run.json when running all workloads)")
		scratch = flag.String("scratch", filepath.Join("benchmark", ".scratch"), "directory for temporary stores and caches")
		compare = flag.Bool("compare", false, "compare two -out files: -compare A.json B.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two files")
			break
		}
		var worse bool
		if worse, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse {
			os.Exit(1)
		}
	case *name == "":
		if *out == "" {
			*out = filepath.Join("benchmark", "out", "run.json")
		}
		err = runAll(*seed, *seconds, *out, *scratch)
	default:
		err = runOne(*name, *seed, *seconds, *trace != 0, *out, *scratch)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a correctness check failed")

// runOne measures one workload in this process, prints every metric by
// name with its unit, and ends standard output with the result line.
func runOne(name string, seed uint64, seconds int, trace bool, out, scratch string) error {
	def, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(benchProcs)
	host := newHostInfo(out != "")
	o := options{name: name, seed: seed, passes: def.passes(seconds), setupReps: def.setupReps(seconds), trace: trace, scratch: scratch, scale: 1}
	if trace {
		o.passes, o.setupReps = tracePasses, 1
	}
	rep, err := measure(def.make(), o)
	if err != nil {
		return err
	}
	host.finish([]*report{rep})
	printReport(os.Stdout, rep)
	if out != "" {
		if err := writeDocument(out, &document{Schema: 1, Host: host, Seed: seed, Seconds: seconds, Runs: []*report{rep}}); err != nil {
			return err
		}
	}
	if err := printResultLine(os.Stdout, rep); err != nil {
		return err
	}
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload, untraced and then traced, each in a child
// process of its own and one at a time, and merges their reports.
func runAll(seed uint64, seconds int, out, scratch string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := tempDir(scratch, "reports-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	host := newHostInfo(true)
	doc := &document{Schema: 1, Seed: seed, Seconds: seconds}
	incorrect := false
	for _, def := range workloads {
		for trace := 0; trace <= 1; trace++ {
			part := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", def.name, trace))
			cmd := exec.Command(self,
				"-workload", def.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-out", part, "-scratch", scratch)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			fmt.Printf("== %s, trace %d\n", def.name, trace)
			runErr := cmd.Run()
			child, err := readDocument(part)
			if err != nil {
				if runErr != nil {
					return fmt.Errorf("%s: %w", def.name, runErr)
				}
				return err
			}
			doc.Runs = append(doc.Runs, child.Runs...)
			incorrect = incorrect || runErr != nil
		}
	}
	host.finish(doc.Runs)
	doc.Host = host
	if err := writeDocument(out, doc); err != nil {
		return err
	}
	fmt.Printf("== wrote %s\n", out)
	if incorrect {
		return errIncorrect
	}
	return nil
}

func writeDocument(path string, doc *document) error {
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// printReport prints every metric of the report by name with its unit.
func printReport(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		if rep.Trace && m.Value == 0 && n != "fail_ratio" {
			continue // a layer this workload does not run
		}
		fmt.Fprintf(w, "%-14s %-32s %14.6g %-6s", rep.Workload, n, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Fprintf(w, " q1 %.6g q3 %.6g n %d", m.Q1, m.Q3, m.N)
		}
		if m.RawMedian != 0 {
			fmt.Fprintf(w, " raw %.6g", m.RawMedian)
		}
		fmt.Fprintln(w)
	}
	if !rep.Trace {
		fmt.Fprintf(w, "%-14s %-32s %14.6g %-6s (%d failed of %d attempted)\n", rep.Workload, "fail_ratio",
			float64(rep.Failed)/float64(rep.Attempted), "ratio", rep.Failed, rep.Attempted)
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "%-14s FAILED: %s\n", rep.Workload, e)
	}
	if rep.Spans != nil {
		var names []string
		for n := range rep.Spans.ByName {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			t := rep.Spans.ByName[n]
			fmt.Fprintf(w, "%-14s span %-34s %7d × total %10.3f ms self %10.3f ms\n", rep.Workload, n, t.Count,
				float64(t.TotalNS)/1e6, float64(t.SelfNS)/1e6)
		}
	}
}

// printResultLine prints the one JSON object a driver reads: whether the
// outputs were correct, how many operations were attempted and failed,
// and each metric's value as measured.
func printResultLine(w io.Writer, rep *report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for n, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number", n)
		}
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// hostInfo says where and when a report was taken, so that numbers from
// different hosts or different load are not compared by accident.
type hostInfo struct {
	CPU           string  `json:"cpu"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Date          string  `json:"date"`
	LoadavgBefore string  `json:"loadavg_before"`
	LoadavgAfter  string  `json:"loadavg_after"`
	CalMS         float64 `json:"bench.cal_ms"`
}

// newHostInfo reads the host block. The commit is asked of git only when
// a report file is to be written.
func newHostInfo(withCommit bool) hostInfo {
	h := hostInfo{
		CPU:           cpuModel(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    benchProcs,
		GoVersion:     runtime.Version(),
		Commit:        "unknown",
		Date:          time.Now().UTC().Format(time.RFC3339),
		LoadavgBefore: loadavg(),
	}
	if withCommit {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(b))
		}
	}
	return h
}

// finish stamps what is only known at the end of the run.
func (h *hostInfo) finish(runs []*report) {
	h.LoadavgAfter = loadavg()
	var cals []float64
	for _, r := range runs {
		cals = append(cals, r.CalMS...)
	}
	h.CalMS = median(cals)
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
