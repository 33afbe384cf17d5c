package integration

import (
	"fmt"
	"testing"

	"multicube/internal/bus"
	"multicube/internal/core"
	"multicube/internal/sim"
	"multicube/internal/workload"
)

// Differential testing of Config.Parallel. There is one DES engine, the
// sequential kernel, but the benchmark harness still builds machines
// with Parallel set to 1 and 2 and requires them to simulate exactly
// what a machine built without it does. The same seeded generator
// workload runs with Parallel unset and at several worker counts, and
// every observable result — final simulated time, the full coherent
// memory image, the rendered machine metrics (bus ops, utilizations,
// per-type transaction stats), the workload report, and the total event
// count — must be byte-identical.

// pdResult captures everything a run may legally be judged by.
type pdResult struct {
	final    sim.Time
	metrics  string
	report   workload.Report
	image    string
	executed uint64
}

// pdRun executes one configuration. The mode names the constructor:
// "fanout" builds with core.New and checks its error, as the benchmark
// harness does; "inline" builds with core.MustNew. Either way a machine
// built with Parallel set must report the sequential engine through the
// accessors the harness reads.
func pdRun(t *testing.T, n, parallel int, mode string, cfg core.Config, wl workload.GenConfig) pdResult {
	t.Helper()
	cfg.N = n
	cfg.Parallel = parallel
	var m *core.Machine
	if mode == "fanout" {
		var err error
		if m, err = core.New(cfg); err != nil {
			t.Fatalf("n=%d parallel=%d: core.New: %v", n, parallel, err)
		}
	} else {
		m = core.MustNew(cfg)
	}
	if m.Parallel() || m.Runner().Stats().Parallelism() != 1 {
		t.Errorf("n=%d parallel=%d %s: machine reports a parallel engine", n, parallel, mode)
	}
	rep := workload.Run(m, wl)
	for _, err := range m.CheckInvariants() {
		t.Errorf("n=%d parallel=%d invariant: %v", n, parallel, err)
	}
	// Image over every address the generator can touch: all private
	// regions plus the shared hot set.
	bw := core.Addr(m.BlockWords())
	priv := core.Addr(wl.PrivateLines)
	if priv == 0 {
		priv = 16
	}
	shared := core.Addr(wl.SharedLines)
	if shared == 0 {
		shared = 64
	}
	top := (core.Addr(m.Processors())*priv + shared) * bw
	var img []byte
	for a := core.Addr(0); a < top; a++ {
		img = append(img, []byte(fmt.Sprintf("%d:%d\n", a, m.ReadCoherent(a)))...)
	}
	return pdResult{
		final:    m.Kernel().Now(),
		metrics:  m.Metrics().String(),
		report:   rep,
		image:    string(img),
		executed: m.Executed(),
	}
}

func pdCompare(t *testing.T, label string, seq, par pdResult) {
	t.Helper()
	if par.final != seq.final {
		t.Errorf("%s: final time %v, sequential %v", label, par.final, seq.final)
	}
	if par.metrics != seq.metrics {
		t.Errorf("%s: metrics diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s",
			label, seq.metrics, par.metrics)
	}
	if par.report != seq.report {
		t.Errorf("%s: workload report %+v, sequential %+v", label, par.report, seq.report)
	}
	if par.image != seq.image {
		t.Errorf("%s: coherent memory image diverged from sequential", label)
	}
	if par.executed != seq.executed {
		t.Errorf("%s: executed %d events, sequential %d", label, par.executed, seq.executed)
	}
}

var pdModes = []string{"fanout", "inline"}

func TestParallelMatchesSequentialSweep(t *testing.T) {
	grids := []int{2, 3, 4}
	seeds := []uint64{1, 7, 42}
	workers := []int{1, 2, 4}
	if testing.Short() {
		grids, seeds, workers = grids[:2], seeds[:2], []int{2}
	}
	for _, n := range grids {
		for _, seed := range seeds {
			wl := workload.GenConfig{Seed: seed, Requests: 120, PShared: 0.4, PWrite: 0.3}
			seq := pdRun(t, n, 0, "inline", core.Config{}, wl)
			for _, w := range workers {
				for _, mode := range pdModes {
					t.Run(fmt.Sprintf("n%d/seed%d/workers%d/%s", n, seed, w, mode), func(t *testing.T) {
						pdCompare(t, fmt.Sprintf("n=%d seed=%d workers=%d %s", n, seed, w, mode),
							seq, pdRun(t, n, w, mode, core.Config{}, wl))
					})
				}
			}
		}
	}
}

// TestParallelMatchesSequentialVariants covers the configuration axes
// the sweep above holds fixed: snarf, bounded caches and tables,
// exponential think times, write-heavy sharing, an L1 in front of the
// snooper, and priority arbitration.
func TestParallelMatchesSequentialVariants(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
		wl   workload.GenConfig
	}{
		{"snarf", core.Config{Snarf: true},
			workload.GenConfig{Seed: 3, Requests: 150, PShared: 0.5, PWrite: 0.3}},
		{"bounded", core.Config{CacheLines: 64, CacheAssoc: 2, MLTEntries: 8, MLTAssoc: 2},
			workload.GenConfig{Seed: 9, Requests: 150, PShared: 0.4, PWrite: 0.3}},
		{"exponential", core.Config{},
			workload.GenConfig{Seed: 11, Requests: 150, Exponential: true, PShared: 0.6, PWrite: 0.5}},
		{"writeheavy", core.Config{},
			workload.GenConfig{Seed: 13, Requests: 150, PShared: 0.8, PWrite: 0.7, SharedLines: 4}},
		{"l1", core.Config{L1Lines: 8, L1Assoc: 2},
			workload.GenConfig{Seed: 17, Requests: 150, PShared: 0.4, PWrite: 0.3}},
		{"priority", core.Config{Arbitration: bus.Priority},
			workload.GenConfig{Seed: 19, Requests: 150, PShared: 0.5, PWrite: 0.3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := pdRun(t, 3, 0, "inline", tc.cfg, tc.wl)
			for _, w := range []int{1, 3} {
				for _, mode := range pdModes {
					pdCompare(t, fmt.Sprintf("%s workers=%d %s", tc.name, w, mode),
						seq, pdRun(t, 3, w, mode, tc.cfg, tc.wl))
				}
			}
		})
	}
}
