// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// paper-versus-measured record). Each iteration rebuilds the experiment
// from scratch, so the reported ns/op is the cost of regenerating the
// entire table or figure. Run with:
//
//	go test -bench=. -benchmem
//
// The same outputs are printed by cmd/multicube-bench.
package multicube

import (
	"testing"

	"multicube/internal/experiments"
	"multicube/internal/mva"
)

// sink defeats dead-code elimination.
var sink int

// BenchmarkFigure2 regenerates Figure 2 (efficiency vs. processors per
// row) from the analytical model.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.Figure2().Render())
	}
}

// BenchmarkFigure2Sim regenerates Figure 2's simulator cross-check: the
// discrete-event machine under an organic shared-data workload.
func BenchmarkFigure2Sim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.Figure2Sim([]int{4, 8}, 100).Render())
	}
}

// BenchmarkFigure3 regenerates Figure 3 (effect of invalidations).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.Figure3().Render())
	}
}

// BenchmarkFigure4 regenerates Figure 4 (effect of block size).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.Figure4().Render())
	}
}

// BenchmarkFigure4Tradeoff regenerates Figure 4's dashed-line block-size
// versus request-rate coupling analysis.
func BenchmarkFigure4Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.BlockTradeoff().Render())
	}
}

// BenchmarkLatencyTechniques regenerates the Section 5 latency ablation
// (cut-through, word-first, small transfer blocks).
func BenchmarkLatencyTechniques(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.Latency().Render())
	}
}

// BenchmarkOpsTable regenerates the bus-operations-per-transaction table
// (the Section 3/6 operation-count claims), measured on the simulator.
func BenchmarkOpsTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.Ops().Render())
	}
}

// BenchmarkScaleTable regenerates the Section 6 Multicube scaling table.
func BenchmarkScaleTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.Scale().Render())
	}
}

// BenchmarkMultiVsMulticube regenerates the single-bus-multi versus
// Multicube comparison (the paper's motivating claim).
func BenchmarkMultiVsMulticube(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.MultiVsMulticube(60).Render())
	}
}

// BenchmarkSyncPrimitives regenerates the Section 4 lock comparison
// (test-and-set vs. test-and-test-and-set vs. the SYNC queue lock).
func BenchmarkSyncPrimitives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.Sync(6).Render())
	}
}

// BenchmarkDimensionSweep regenerates the Section 6 dimensionality
// analysis: Figure 2's model over k dimensions.
func BenchmarkDimensionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.Dimensions().Render())
	}
}

// BenchmarkSnarfAblation regenerates the Section 3 snarf ablation.
func BenchmarkSnarfAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.Snarf(100).Render())
	}
}

// BenchmarkMLTSizing regenerates the footnote-7 modified-line-table
// sizing sweep.
func BenchmarkMLTSizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.MLTSize(100).Render())
	}
}

// BenchmarkFalseSharing regenerates the Section 5 false-sharing ablation.
func BenchmarkFalseSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.FalseSharing(40).Render())
	}
}

// BenchmarkArbitration regenerates the bus-arbitration policy comparison.
func BenchmarkArbitration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.Arbitration(80).Render())
	}
}

// BenchmarkSyncScaling regenerates the lock-contention scaling table.
func BenchmarkSyncScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink = len(experiments.SyncScaling(4).Render())
	}
}

// BenchmarkMVASolve measures a single analytical-model evaluation at the
// paper's 1K-processor design point.
func BenchmarkMVASolve(b *testing.B) {
	p := mva.Defaults(32)
	for i := 0; i < b.N; i++ {
		r := mva.MustSolve(p)
		sink = int(r.Efficiency * 1000)
	}
}
