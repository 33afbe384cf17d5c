package experiments

import "multicube/internal/stats"

// Experiment is one named table of the evaluation: what `multicube-bench
// -experiment` selects and what TestPaperTablesGolden pins.
type Experiment struct {
	Name  string
	Table func() *stats.Table
}

// All lists the experiments in the order `-experiment all` prints them,
// each at its default size.
func All() []Experiment {
	return []Experiment{
		{Name: "fig2", Table: func() *stats.Table { return Figure2().Table() }},
		{Name: "fig2sim", Table: func() *stats.Table { return Figure2Sim(nil, 0).Table() }},
		{Name: "fig3", Table: func() *stats.Table { return Figure3().Table() }},
		{Name: "fig4", Table: func() *stats.Table { return Figure4().Table() }},
		{Name: "tradeoff", Table: func() *stats.Table { return BlockTradeoff().Table() }},
		{Name: "latency", Table: func() *stats.Table { return Latency().Table() }},
		{Name: "ops", Table: Ops},
		{Name: "scale", Table: Scale},
		{Name: "multi", Table: func() *stats.Table { return MultiVsMulticube(0) }},
		{Name: "sync", Table: func() *stats.Table { return Sync(0) }},
		{Name: "dims", Table: func() *stats.Table { return Dimensions().Table() }},
		{Name: "snarf", Table: func() *stats.Table { return Snarf(0) }},
		{Name: "mltsize", Table: func() *stats.Table { return MLTSize(0) }},
		{Name: "falseshare", Table: func() *stats.Table { return FalseSharing(0) }},
		{Name: "arbitration", Table: func() *stats.Table { return Arbitration(0) }},
		{Name: "arbmachine", Table: func() *stats.Table { return ArbitrationMachine(0) }},
		{Name: "syncscale", Table: func() *stats.Table { return SyncScaling(0) }},
	}
}
