package integration

import (
	"fmt"
	"strings"
	"testing"

	"multicube/internal/coherence"
	"multicube/internal/core"
	"multicube/internal/sim"
	"multicube/internal/syncprim"
	"multicube/internal/topology"
	"multicube/internal/workload"
)

// TestNarrowDeliveryMatchesWide holds the snoopers' narrow paths to the
// wide ones they replace. Two hooks widen delivery back: an Observer
// enters every controller on the bus, column INSERTs and REMOVEs among
// them, and a SuppressSignal hook, here one that never fires, enters
// every controller on the row for a row REQUEST instead of only the
// claimant or the home column. Each leg runs a machine with one hook and
// its twin without; the two must simulate the same run — metrics, final
// memory and cache image, events dispatched and every column's table —
// on the des-shared mix at N = 8, a 2-entry, 1-way table beside a
// bounded cache, snarfing, and the SYNC stencil.
func TestNarrowDeliveryMatchesWide(t *testing.T) {
	queueLock := func(a core.Addr) syncprim.Locker { return &syncprim.QueueLock{Addr: a} }
	cases := []desGoldenCase{
		{"shared/n8", core.Config{N: 8}, genRun(sharedMix(500))},
		{"mlt2x1", core.Config{N: 4, BlockWords: 8, CacheLines: 16, CacheAssoc: 4, MLTEntries: 2, MLTAssoc: 1},
			genRun(workload.GenConfig{Seed: 7, Think: 4 * sim.Microsecond, Exponential: true,
				SharedLines: 24, PrivateLines: 12, PShared: 0.6, PWrite: 0.4, Requests: 300})},
		{"snarf", core.Config{N: 4, Snarf: true}, genRun(sharedMix(400))},
		{"stencil/sync", core.Config{N: 3, BlockWords: 8, MLTEntries: 2, MLTAssoc: 1}, runStencil(queueLock)},
	}
	legs := []struct {
		name  string
		widen func(*coherence.System)
	}{
		{"observer", func(s *coherence.System) { s.Observer = func(coherence.SnoopEvent) {} }},
		{"suppress-hook", func(s *coherence.System) {
			s.SuppressSignal = func(topology.Coord, *coherence.Op) bool { return false }
		}},
	}
	for _, c := range cases {
		for _, leg := range legs {
			t.Run(c.name+"/"+leg.name, func(t *testing.T) {
				// run simulates c, widened or not, and stops a run that issues
				// more than limit bus operations: a request that reaches no
				// server bounces between rows and memory for ever.
				run := func(widen func(*coherence.System), limit int) (string, int) {
					m, err := core.New(c.cfg)
					if err != nil {
						t.Fatal(err)
					}
					if widen != nil {
						widen(m.System())
					}
					ops := 0
					m.System().OpLog = func(coherence.Dim, topology.Coord, *coherence.Op) {
						if ops++; ops > limit {
							t.Fatalf("more than %d bus operations: a request is bouncing for ever", limit)
						}
					}
					c.run(t, m)
					var b strings.Builder
					fmt.Fprintf(&b, "%s\nimage %s executed %d\n", m.Metrics(), imageHash(m), m.Kernel().Executed())
					for col := 0; col < c.cfg.N; col++ {
						fmt.Fprintf(&b, "mlt%d %v %+v\n", col, m.System().MLT().AppendLines(col, nil), m.System().MLT().Stats(col))
					}
					return b.String(), ops
				}
				wide, ops := run(leg.widen, 1_000_000)
				if narrow, _ := run(nil, 2*ops); narrow != wide {
					t.Errorf("narrow delivery:\n%s\nwidened:\n%s", narrow, wide)
				}
			})
		}
	}
}
