package workload

import (
	"runtime"
	"testing"

	"multicube/internal/core"
	"multicube/internal/sim"
)

// TestAllocsPerReference holds the timed machine to an allocation budget:
// heap objects allocated by Run, generator set-up included, per reference
// it completes, on the repository benchmark's two mixes. The hot paths
// allocate nothing per kernel event — bus grants and deliveries, think
// timers, processor completions and device-latency enqueues all run
// bodies built with the machine — so what is left is one bus operation
// per hop, one payload where data leaves a cache or memory, and one
// trace per transaction. A closure or a boxed tag back on those paths
// fails here instead of waiting for a benchmark run. The budgets sit one
// notch above what the code reaches (2.22 and 0.08); when every event
// still took a closure the same runs cost 9.43 and 1.27.
func TestAllocsPerReference(t *testing.T) {
	mix := GenConfig{Seed: 1, Think: 10 * sim.Microsecond, Exponential: true,
		SharedLines: 64, PrivateLines: 16, PWrite: 0.3}
	for _, tc := range []struct {
		name     string
		pshared  float64
		requests int
		budget   float64
	}{
		{"shared", 0.5, 1500, 2.6},
		{"private", 0.01, 10000, 0.12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := core.MustNew(core.Config{N: 4})
			gen := mix
			gen.PShared, gen.Requests = tc.pshared, tc.requests
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rep := Run(m, gen)
			runtime.ReadMemStats(&after)
			if rep.References != uint64(m.Processors()*tc.requests) {
				t.Fatalf("references = %d", rep.References)
			}
			got := float64(after.Mallocs-before.Mallocs) / float64(rep.References)
			t.Logf("%.3f allocations per reference (budget %.2f)", got, tc.budget)
			if got > tc.budget {
				t.Errorf("%.3f allocations per reference, budget %.2f", got, tc.budget)
			}
		})
	}
}
