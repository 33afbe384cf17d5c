package mc

import (
	"runtime"
	"testing"
)

// TestAllocsPerState holds the explorer to an allocation budget: heap
// objects allocated by a whole in-RAM search of litmus-coww-3x3, per state
// it visits. The per-step and per-run buffers — candidate classes, the
// children's output list, node-hash lines, the two-Modified table — are
// reused by their owners, and what is allocated is what a longer-lived
// structure keeps: the visited store's entries, the prefixes of work items
// on the frontier, the saved boundaries. The search reaches 3.00 objects
// per state; it cost 20.5 when every take copied its candidates, every
// visit sorted a fresh slice and every two-Modified check built a Go map,
// 4.97 while the explorer kept sleep sets, and 4.89 when children builds
// a fresh output list per run, which the budget catches. The warm-up
// search builds what a process builds once (the scenario's shared
// tables), so only the search itself is counted.
func TestAllocsPerState(t *testing.T) {
	if testing.Short() {
		t.Skip("a full 3×3 search")
	}
	const budget = 4.0
	sc, err := Preset("litmus-coww-3x3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Explore(sc, Options{}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Explore(sc, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 7895 || !res.Exhausted {
		t.Fatalf("%d states, exhausted %v; want 7895, exhausted", res.States, res.Exhausted)
	}
	got := float64(after.Mallocs-before.Mallocs) / float64(res.States)
	t.Logf("%.2f allocations per state (budget %.0f), %.0f bytes per state",
		got, budget, float64(after.TotalAlloc-before.TotalAlloc)/float64(res.States))
	if got > budget {
		t.Errorf("%.2f allocations per state, budget %.0f", got, budget)
	}
}
