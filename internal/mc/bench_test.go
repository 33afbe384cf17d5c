package mc

import (
	"testing"
)

// BenchmarkExplore measures the model checker's state-exploration
// throughput on the 2×2 presets (the 3×3 ones are too slow for a bench
// loop). Each iteration is a full bounded exploration from scratch with
// the default persistent-set reduction; the custom states/sec
// metric is the number the optimization work cares about — ns/op tracks
// scenario size, states/sec tracks the explorer. The repository's
// benchmark (`go run ./benchmark`, workload mc-deep-spill) is the
// recorded measurement; this is the quick local one. Run with:
//
//	go test ./internal/mc/ -bench=BenchmarkExplore -benchtime=2x
func BenchmarkExplore(b *testing.B) {
	for _, name := range []string{
		"readmod-race", "read-race", "sync-race", "mlt-overflow-lock",
		"sb-writeonce-race", "sb-victim-race",
	} {
		sc, err := Preset(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			states := 0
			for i := 0; i < b.N; i++ {
				res, err := Explore(sc, Options{MaxStates: 400000})
				if err != nil {
					b.Fatal(err)
				}
				if res.Violation != nil {
					b.Fatalf("unexpected violation: %v", res.Violation)
				}
				states += res.States
			}
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
			b.ReportMetric(float64(states)/float64(b.N), "states")
		})
	}
}

// BenchmarkSingleBusTraffic runs every exploration of the single-bus
// baseline the tree contains — the 18 SingleBus presets, and swarm seeds
// 0–199 as one iteration — which is the measurement behind fingerprinting
// that machine by the full walk alone (EXPERIMENTS.md, "PR 18"; ns/op is
// one exploration, or all 200 for the swarm). Run with:
//
//	go test ./internal/mc -run '^$' -bench SingleBusTraffic -benchtime 11x
func BenchmarkSingleBusTraffic(b *testing.B) {
	explore := func(name string, scs []Scenario) {
		b.Run(name, func(b *testing.B) {
			states, runs := 0, 0
			for i := 0; i < b.N; i++ {
				for _, sc := range scs {
					res, err := Explore(sc, Options{MaxStates: 5_000_000})
					if err != nil {
						b.Fatal(err)
					}
					if res.Violation != nil || !res.Exhausted {
						b.Fatalf("%s: violation %v, exhausted %v", sc.Name, res.Violation, res.Exhausted)
					}
					states += res.States
					runs += res.Runs
				}
			}
			b.ReportMetric(float64(states)/float64(b.N), "states")
			b.ReportMetric(float64(runs)/float64(b.N), "runs")
		})
	}
	for _, name := range Presets() {
		sc, err := Preset(name)
		if err != nil {
			b.Fatal(err)
		}
		if sc.SingleBus {
			explore(name, []Scenario{sc})
		}
	}
	var swarm []Scenario
	for seed := int64(0); seed < 200; seed++ {
		swarm = append(swarm, SwarmScenario(seed, true))
	}
	explore("swarm-0-199", swarm)
}
