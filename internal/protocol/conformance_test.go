package protocol_test

import (
	"os"
	"sort"
	"strings"
	"testing"

	"multicube/internal/mc"
	"multicube/internal/protocol"
)

// conformancePresets returns the bundled presets that run on the grid
// machine (the single-bus baseline has its own snooper and is outside
// the table's scope), pruned for -short.
func conformancePresets(t *testing.T) []string {
	var names []string
	for _, name := range mc.Presets() {
		sc, err := mc.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if sc.SingleBus {
			continue
		}
		base := strings.TrimSuffix(strings.TrimPrefix(name, "litmus-"), "-1col")
		switch base {
		case "iriw":
			// ≈1.2M states, minutes per run; everything iriw exercises at the
			// protocol level is covered by the smaller litmus presets.
			if os.Getenv("MC_LITMUS_EXHAUSTIVE") == "" {
				continue
			}
		case "sb", "wrc":
			if testing.Short() {
				continue
			}
		}
		names = append(names, name)
	}
	return names
}

// TestConformance runs the explorer over every bundled grid preset with
// the conformance collector attached: each snoop window the hand-written
// controllers execute must select exactly one spec rule and match its
// action list, next state, and modified-line-table transition. Any
// divergence between internal/coherence and the Appendix A table is a
// hard failure, reported per preset.
//
// After the sweep the coverage gate runs: every rule not annotated
// Unreachable must have been exercised by some preset. The gate needs
// the full corpus, so it is skipped under -short.
func TestConformance(t *testing.T) {
	table := protocol.Multicube()
	if errs := table.Check(); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatal("table fails its static check; conformance verdicts would be meaningless")
	}
	conf := protocol.NewConformance(table)

	budget := 60_000
	if testing.Short() {
		budget = 8_000
	}
	for _, name := range conformancePresets(t) {
		sc, err := mc.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		before := len(conf.Mismatches())
		// Violations are fine here (several presets exist to demonstrate
		// one); conformance only judges the transitions taken on the way.
		// The search is a pure function of scenario and options, so which
		// rules a budget-capped preset reaches, and with it the coverage
		// gate below, is the same on every run.
		if _, err := mc.Explore(sc, mc.Options{
			MaxStates:  budget,
			Instrument: conf.Attach,
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ms := conf.Mismatches(); len(ms) > before {
			for _, m := range ms[before:] {
				t.Errorf("%s: %s", name, m)
			}
			t.Fatalf("%s: %d conformance mismatches", name, len(ms)-before)
		}
	}

	if conf.Events() == 0 {
		t.Fatal("no snoop windows observed; the instrument hook is not wired")
	}
	cov := conf.Coverage()
	t.Logf("%d snoop windows; %d/%d rules covered, %d annotated unreachable",
		conf.Events(), len(cov.Covered), len(table.Rules()), len(cov.Annotated))

	if testing.Short() {
		if len(cov.Uncovered) > 0 {
			t.Skipf("coverage gate needs the full corpus; %d rules unexercised under -short", len(cov.Uncovered))
		}
		return
	}
	if len(cov.Uncovered) > 0 {
		sort.Strings(cov.Uncovered)
		for _, name := range cov.Uncovered {
			t.Errorf("rule %s: reachable-marked but never exercised by any bundled preset", name)
		}
		t.Fatalf("%d rules unexercised; annotate them Unreachable (with a reason) or add a preset that reaches them",
			len(cov.Uncovered))
	}
}
