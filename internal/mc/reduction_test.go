package mc

import (
	"testing"
)

// reductionPresets are the presets whose search exhausts, or stops at a
// violation, within reductionBudget states with every reduction off as
// well as on: 39 of them, about 7 s together.
var reductionPresets = []string{
	"readmod-race", "read-race", "mlt-overflow-lock", "sync-fail",
	"readmod-row-pair", "readmod-col-pair", "read-col-pair", "wb-steal",
	"readmod-race-3x3", "mlt-churn-3x3", "stale-shared-mp",
	"sb-writeonce-race", "sb-victim-race", "sb-mesi-race", "sb-mesi-victim-race",
	"litmus-sb-sb", "litmus-sb-sb-mesi",
	"litmus-mp", "litmus-mp-1col", "litmus-mp-3x3", "litmus-mp-sb", "litmus-mp-sb-mesi",
	"litmus-lb", "litmus-lb-1col", "litmus-lb-3x3", "litmus-lb-sb", "litmus-lb-sb-mesi",
	"litmus-wrc-sb", "litmus-wrc-sb-mesi", "litmus-iriw-sb", "litmus-iriw-sb-mesi",
	"litmus-corr", "litmus-corr-3x3", "litmus-corr-sb", "litmus-corr-sb-mesi",
	"litmus-coww", "litmus-coww-3x3", "litmus-coww-sb", "litmus-coww-sb-mesi",
}

const reductionBudget = 20_000

// sleepHidden are the presets on which the search with sleep sets
// records fewer canonical states than the same search without them, and
// how many fewer. Everything else reaches the same set both ways. The
// hidden states are not yet explained (ROADMAP item 4(a)); pinning their
// number makes any change in what sleep sets prune fail here.
var sleepHidden = map[string]int{
	"readmod-race": 15, "wb-steal": 4, "readmod-race-3x3": 4, "mlt-churn-3x3": 2, "litmus-mp": 4,
}

// reach explores sc under opts and returns the result with the canonical
// fingerprints of the states the search recorded.
func reach(t *testing.T, sc Scenario, opts Options) (Result, map[uint64]bool) {
	t.Helper()
	seen := make(map[uint64]bool)
	opts.MaxStates = reductionBudget
	opts.onNew = func(fp uint64, _ []uint64) { seen[fp] = true }
	res, err := Explore(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil && (!res.Exhausted || len(seen) != res.States) {
		t.Fatalf("%+v: exhausted %v, %d states, %d recorded", opts, res.Exhausted, res.States, len(seen))
	}
	return res, seen
}

// verdict is what a search concluded, without what it cost.
func verdict(r Result) string {
	kind := ""
	if r.Violation != nil {
		kind = r.Violation.Kind
	}
	return kind + "|" + r.SCVerdict
}

// missing counts the members of a that b lacks.
func missing(a, b map[uint64]bool) int {
	n := 0
	for fp := range a {
		if !b[fp] {
			n++
		}
	}
	return n
}

// TestReductionsHideNoState holds the explorer's reductions to the
// unreduced search (ROADMAP item 4(a)): the fully reduced search, the one
// without sleep sets and the one without any reduction reach the same
// verdict; each reaches a subset of the canonical states of the next;
// and sleep sets hide no state except the ones sleepHidden counts. Eager
// firing of a persistent enqueue skips the states in between, so the
// unreduced search reaches more. Where a violation stops a search the
// sets are not compared: where it stops depends on the search order.
func TestReductionsHideNoState(t *testing.T) {
	if testing.Short() {
		t.Skip("three searches of every small preset")
	}
	for _, name := range reductionPresets {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			full, fullSet := reach(t, sc, Options{})
			noSleep, noSleepSet := reach(t, sc, Options{DisableSleep: true})
			none, noneSet := reach(t, sc, Options{DisablePOR: true})
			if verdict(full) != verdict(noSleep) || verdict(full) != verdict(none) {
				t.Fatalf("verdicts: reduced %q, without sleep sets %q, unreduced %q",
					verdict(full), verdict(noSleep), verdict(none))
			}
			if full.Violation != nil {
				return
			}
			if n := missing(fullSet, noSleepSet); n > 0 {
				t.Errorf("%d states the reduced search reached, the search without sleep sets did not", n)
			}
			if n := missing(noSleepSet, noneSet); n > 0 {
				t.Errorf("%d states the search without sleep sets reached, the unreduced one did not", n)
			}
			if n := missing(noSleepSet, fullSet); n != sleepHidden[name] {
				t.Errorf("sleep sets hid %d of %d states, want %d", n, len(noSleepSet), sleepHidden[name])
			}
		})
	}
}
