package main

// metricDef is one line of the benchmark's metric tables. BENCHMARK.json
// carries the same names, units, directions and bounds (bench_test.go
// holds the two in step); the exact flag lives only here, because the
// file's shape has no place for it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it worse.
	Bound float64
	// Exact marks a simulated statistic or a count: it must read the
	// same on every pass, and on every run of one commit with one seed.
	Exact bool
}

// endToEnd are the gated metrics. Every workload reports every one of
// them, so only metrics that mean the same thing on all four workloads
// are here; the ones that exist on some workloads only (latency
// percentiles, simulated statistics) are in perLayer, ungated, under
// the names the issue gave them. README.md, "Bounds and the demotion
// rule", records the spreads behind the bounds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "time_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_sec", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// perLayer are the ungated metrics of the traced run. A workload reports
// 0 for a metric of a layer it does not run.
var perLayer = []metricDef{
	// Results a user of one workload family sees. They would be
	// end-to-end metrics if every workload had them.
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "p99_ms", Unit: "ms", Better: "lower"},
	{Name: "sim_efficiency", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "sim_elapsed_ms", Unit: "ms", Better: "lower", Exact: true},
	{Name: "bus_ops_per_txn", Unit: "ops", Better: "lower", Exact: true},
	{Name: "mva_abs_err", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Exact: true},
	// Demoted from the end-to-end list: the farm's high-water mark moves
	// by more than its bound from run to run.
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},

	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.events_per_ref", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.est_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.runner_overhead", Unit: "ratio", Better: "lower"},
	{Name: "sim.runner_speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "sim.runner_parallelism", Unit: "ratio", Better: "higher", Exact: true},

	{Name: "bus.op_ns", Unit: "ns", Better: "lower"},
	{Name: "bus.ops_per_ref", Unit: "count", Better: "lower", Exact: true},
	{Name: "bus.row_util", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "bus.col_util", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "bus.est_share", Unit: "ratio", Better: "lower"},

	{Name: "coherence.txn_ns", Unit: "ns", Better: "lower"},
	{Name: "coherence.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "coherence.reissues_per_txn", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "coherence.invalidations_per_ref", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "coherence.read_lat_ns", Unit: "ns", Better: "lower", Exact: true},
	{Name: "coherence.readmod_lat_ns", Unit: "ns", Better: "lower", Exact: true},
	{Name: "coherence.build_us", Unit: "us", Better: "lower"},
	{Name: "coherence.fp_ns", Unit: "ns", Better: "lower"},
	{Name: "coherence.fp_scratch_ns", Unit: "ns", Better: "lower"},
	{Name: "coherence.est_share", Unit: "ratio", Better: "lower"},

	{Name: "cache.l2_hit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "memory.reads_per_ref", Unit: "ratio", Better: "lower", Exact: true},

	{Name: "core.hit_ref_ns", Unit: "ns", Better: "lower"},
	{Name: "core.build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "workload.rand_ns", Unit: "ns", Better: "lower"},
	{Name: "mva.solve_us", Unit: "us", Better: "lower"},

	{Name: "mc.states", Unit: "count", Better: "lower", Exact: true},
	{Name: "mc.runs", Unit: "count", Better: "lower", Exact: true},
	{Name: "mc.sc_checks", Unit: "count", Better: "lower", Exact: true},
	{Name: "mc.runs_per_state", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mc.fp_recompute_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mc.steps_per_run", Unit: "count", Better: "lower", Exact: true},
	{Name: "mc.run_us_p50", Unit: "us", Better: "lower"},
	{Name: "mc.run_us_p99", Unit: "us", Better: "lower"},
	{Name: "mc.replay_step_ns", Unit: "ns", Better: "lower"},
	{Name: "mc.est_replay_share", Unit: "ratio", Better: "lower"},
	{Name: "mc.est_fp_share", Unit: "ratio", Better: "lower"},
	{Name: "mc.est_build_share", Unit: "ratio", Better: "lower"},
	{Name: "mc.unattributed_share", Unit: "ratio", Better: "lower"},

	{Name: "statespace.visit_ns_ram", Unit: "ns", Better: "lower"},
	{Name: "statespace.visit_ns_spill", Unit: "ns", Better: "lower"},
	{Name: "statespace.spills", Unit: "count", Better: "lower", Exact: true},
	{Name: "statespace.disk_bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "memmodel.check_us", Unit: "us", Better: "lower"},

	{Name: "jobspec.canon_us", Unit: "us", Better: "lower"},
	{Name: "jobspec.encode_us", Unit: "us", Better: "lower"},
	{Name: "farm.cache_get_mem_us", Unit: "us", Better: "lower"},
	{Name: "farm.cache_get_disk_us", Unit: "us", Better: "lower"},
	{Name: "farm.cache_put_us", Unit: "us", Better: "lower"},
	{Name: "farm.hit_ms", Unit: "ms", Better: "lower"},
	{Name: "farm.miss_ms", Unit: "ms", Better: "lower"},
	{Name: "farm.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "farm.hits_mem", Unit: "count", Better: "higher"},
	{Name: "farm.hits_disk", Unit: "count", Better: "lower"},
	{Name: "farm.misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "farm.dedup_hits", Unit: "count", Better: "lower", Exact: true},
	{Name: "farm.rejected", Unit: "count", Better: "lower", Exact: true},
	{Name: "farm.server_start_ms", Unit: "ms", Better: "lower"},

	{Name: "go.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.alloc_bytes_per_op", Unit: "count", Better: "lower"},
	{Name: "go.gc_cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "bench.cal_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.cal_spread", Unit: "ratio", Better: "lower"},
	{Name: "bench.raw_time_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
