package coherence_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"multicube/internal/coherence"
	"multicube/internal/mc"
)

// exploreChecked explores the scenario on one worker with every skip of
// every Save and Load checked (coherence.CheckSkips), and returns the
// result with the number of components its Loads copied, each, on average.
func exploreChecked(t *testing.T, sc mc.Scenario, maxStates int) (res mc.Result, copiedPerLoad float64, skips int) {
	t.Helper()
	var sys *coherence.System
	var checked func() (all, byLoad int)
	var components, loadSkips int
	collect := func() {
		if checked != nil {
			all, byLoad := checked()
			skips, loadSkips = skips+all, loadSkips+byLoad
		}
	}
	opts := mc.Options{MaxStates: maxStates, Instrument: func(s *coherence.System) {
		// Once per execution: each execution's checker replaces the last.
		if sys != nil && sys != s {
			t.Fatal("a sequential search used two machines")
		}
		collect()
		sys = s
		checked, components = coherence.CheckSkips(t, s)
	}}
	res, err := mc.Explore(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	collect()
	if loads := res.TotalRuns - 1; loads > 0 { // every run but the first starts with one
		copiedPerLoad = float64(components) - float64(loadSkips)/float64(loads)
	}
	return res, copiedPerLoad, skips
}

// TestSkippedComponentsMatchOnPresets: the search itself, under the skip
// check, on every preset TestPresetGolden explores by default (those of
// at most 8 000 states; 2 500 with -short) and on the 24 swarm seeds the
// benchmark's farm-mix workload submits. The results must be the golden
// ones — the check changes nothing — and on litmus-coww-3x3, the preset
// the benchmark spills, a Load must copy a third of the machine at most.
func TestSkippedComponentsMatchOnPresets(t *testing.T) {
	data, err := os.ReadFile("../mc/testdata/preset_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		Preset string `json:"preset"`
		Spill  bool   `json:"spill"`
		States int    `json:"states"`
		Runs   int    `json:"runs"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	limit := 8000
	if testing.Short() {
		limit = 2500
	}
	total := 0
	for _, g := range golden {
		if g.Spill || g.States > limit {
			continue // the store's tier is nothing to a rewind
		}
		g := g
		t.Run(g.Preset, func(t *testing.T) {
			sc, err := mc.Preset(g.Preset)
			if err != nil {
				t.Fatal(err)
			}
			res, copied, skips := exploreChecked(t, sc, 5_000_000)
			if res.States != g.States || res.Runs != g.Runs {
				t.Fatalf("%d states in %d runs under the check, golden %d in %d", res.States, res.Runs, g.States, g.Runs)
			}
			total += skips
			if !sc.SingleBus {
				t.Logf("%d restores, %.1f of %d components copied a load, %d skips checked", res.Restores, copied, 3*sc.N+sc.N*sc.N, skips)
			}
			if g.Preset == "litmus-coww-3x3" && (copied == 0 || copied > 6) {
				t.Fatalf("a Load copies %.2f of 18 components, want at most 6", copied)
			}
		})
	}
	for seed := int64(1000); seed < 1024; seed++ { // benchmark/farm.go: farmPoolSeed, 2 clients × 12 specs
		seed := seed
		t.Run(fmt.Sprintf("swarm-%d", seed), func(t *testing.T) {
			res, copied, skips := exploreChecked(t, mc.SwarmScenario(seed, false), 1500)
			total += skips
			t.Logf("%d states, %d restores, %.1f of 10 components copied a load, %d skips checked", res.States, res.Restores, copied, skips)
		})
	}
	if total == 0 {
		t.Fatal("no skip was checked")
	}
}
