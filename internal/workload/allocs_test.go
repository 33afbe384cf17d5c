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
// bodies built with the machine — and a bus operation, with its payload
// block, is recycled once its bus has delivered it. What is left on the
// shared mix is one TxnTrace per transaction (0.33 a reference), which is
// not recycled because late operations of a completed transaction still
// count into it, and the first fill of each line into a node's unbounded
// cache (0.11). A closure or a boxed tag back on those paths, or an
// operation no longer released, fails here instead of waiting for a
// benchmark run. The shared budgets sit one notch above what the code
// reaches, 0.46 allocations and 39 bytes; with a fresh operation and
// payload per hop it cost 2.21 and 332, and when every event still took
// a closure 9.43 allocations. The private mix reaches 0.03 and 3 bytes
// (0.08 and 12 with a fresh operation per hop); its bytes are held
// because the generator draws each reference when it is due, where a
// stream drawn up front cost 53.
func TestAllocsPerReference(t *testing.T) {
	mix := GenConfig{Seed: 1, Think: 10 * sim.Microsecond, Exponential: true,
		SharedLines: 64, PrivateLines: 16, PWrite: 0.3}
	for _, tc := range []struct {
		name     string
		pshared  float64
		requests int
		budget   float64
		bytes    float64 // per reference; 0 is no budget
	}{
		{"shared", 0.5, 1500, 0.6, 64},
		{"private", 0.01, 10000, 0.12, 16},
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
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(rep.References)
			t.Logf("%.1f bytes per reference", bytes)
			if tc.bytes > 0 && bytes > tc.bytes {
				t.Errorf("%.1f bytes per reference, budget %.0f", bytes, tc.bytes)
			}
		})
	}
}
