package experiments

import (
	"fmt"

	"multicube/internal/bus"
	"multicube/internal/core"
	"multicube/internal/stats"
	"multicube/internal/workload"
)

// ArbitrationMachine is the service-discipline ablation at machine level
// on the paper's 8×8 configuration: FCFS (the paper's model) against
// round-robin and fixed-priority grant order (the head-of-line policy of
// the arXiv:1004.3560 bus-arbitration study), identical workload per
// policy. The interesting measured result is that fixed priority wins on
// this closed-loop workload: a stable grant winner holds block ownership
// longer, cutting invalidation ping-pong (fewer row and column ops) and
// finishing sooner. The fairness cost doesn't bind here — every
// processor issues a fixed request count, so starvation surfaces as
// per-processor tail latency, not lost throughput.
func ArbitrationMachine(requests int) *stats.Table {
	if requests == 0 {
		requests = 300
	}
	t := stats.NewTable(
		"Bus arbitration on the 8×8 machine, shared-heavy workload",
		"policy", "efficiency", "elapsed", "row ops", "col ops", "req/ms/proc")
	for _, arb := range []bus.Arbitration{bus.FIFO, bus.RoundRobin, bus.Priority} {
		m := core.MustNew(core.Config{N: 8, Arbitration: arb})
		rep := workload.Run(m, workload.GenConfig{
			Seed: 5, Requests: requests,
			PShared: 0.8, PWrite: 0.4, SharedLines: 32,
		})
		mt := m.Metrics()
		t.AddRow(arb.String(), fmt.Sprintf("%.4f", rep.Efficiency()), rep.Elapsed,
			mt.RowBusOps, mt.ColBusOps, fmt.Sprintf("%.2f", rep.BusRate(m.Processors())))
	}
	return t
}
