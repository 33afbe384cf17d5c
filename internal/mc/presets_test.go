package mc

import "testing"

// TestReductionFindsInjectedBug cross-checks the partial-order reduction
// against the injected §5.6a bug: the reduced and the unreduced search
// must both find the race.
func TestReductionFindsInjectedBug(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	sc.InjectStaleReply = true
	for _, opts := range []Options{
		{MaxStates: 400000},                   // persistent-set eager firing
		{MaxStates: 400000, DisablePOR: true}, // unreduced
	} {
		res, err := Explore(sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation == nil {
			t.Fatalf("injected bug not found with options %+v", opts)
		}
	}
}

// TestPresets3x3Exhaust requires both 3×3 presets to exhaust their
// bounded interleaving spaces — six buses, cross-column routing, and the
// row-symmetry canonicalization all have to hold up at N=3.
func TestPresets3x3Exhaust(t *testing.T) {
	for _, name := range []string{"readmod-race-3x3", "mlt-churn-3x3"} {
		if testing.Short() && name == "mlt-churn-3x3" {
			continue // ~10s exhaustive; covered by the full run and CI
		}
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(sc, Options{MaxStates: 400000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("%s: %v", name, res.Violation)
		}
		if !res.Exhausted {
			t.Fatalf("%s: not exhausted (states=%d, budget=%v)", name, res.States, res.BudgetHit)
		}
		if res.States < 1000 {
			t.Fatalf("%s: only %d states; the 3×3 scenario lost its interleavings", name, res.States)
		}
		t.Logf("%s: %d states, %d runs, exhausted", name, res.States, res.Runs)
	}
}

// TestSingleBusPreset runs the write-once baseline preset through the
// same explorer: the bounded space must exhaust with no violation, and a
// replay must produce an annotated trace of single-bus transactions.
func TestSingleBusPreset(t *testing.T) {
	sc, err := Preset("sb-writeonce-race")
	if err != nil {
		t.Fatal(err)
	}
	// CheckFP has nothing to cross-check on the baseline and must be
	// accepted as a no-op; its fingerprint counters read zero.
	res, err := Explore(sc, Options{MaxStates: 400000, CheckFP: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("write-once baseline: %v", res.Violation)
	}
	if res.FPRecomputes != 0 || res.FPIncremental != 0 {
		t.Fatalf("baseline reported fingerprint-cache counters %d/%d; it keeps no cache", res.FPRecomputes, res.FPIncremental)
	}
	if !res.Exhausted {
		t.Fatalf("baseline space not exhausted (states=%d)", res.States)
	}
	if res.Runs < 2 {
		t.Fatalf("only %d runs; the racing write-throughs produced no branching", res.Runs)
	}
	rr, err := Replay(sc, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Violation != nil {
		t.Fatalf("default-schedule replay: %v", rr.Violation)
	}
	if !rr.Quiescent || rr.Log.Len() == 0 {
		t.Fatalf("replay quiescent=%v with %d trace entries", rr.Quiescent, rr.Log.Len())
	}
}

// TestVictimRacePreset is the regression for the write-back-buffer bug
// the swarm caught (seed 9006): a reader's READ winning arbitration
// ahead of a queued dirty-victim WRITE-BACK used to cache a stale block,
// because the victim's data was invisible to probes between
// victimization and the flush's bus grant. The buffer now answers
// probes; every interleaving must be clean.
func TestVictimRacePreset(t *testing.T) {
	sc, err := Preset("sb-victim-race")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(sc, Options{MaxStates: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("write-back buffer race: %v", res.Violation)
	}
	if !res.Exhausted {
		t.Fatalf("space not exhausted (states=%d)", res.States)
	}
	if res.Runs < 2 {
		t.Fatalf("only %d runs; the arbitration race produced no branching", res.Runs)
	}
}
