package mc

import (
	"context"
	"testing"
	"time"
)

// TestExploreCancelPrompt is the farm's worker-leak regression: a
// canceled exploration must return within roughly one bounded run, not
// finish the search. readmod-race exhausts ~19k states in seconds; a
// cancel a few milliseconds in must come back long before that with the
// partial-result marker set.
func TestExploreCancelPrompt(t *testing.T) {
	sc, err := Preset("readmod-race")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(25*time.Millisecond, cancel)
	start := time.Now()
	res, err := Explore(sc, Options{Ctx: ctx})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if !res.Canceled {
		t.Fatalf("exploration finished in %v without Canceled; expected a partial result", elapsed)
	}
	if res.Exhausted {
		t.Fatal("canceled exploration claims Exhausted")
	}
	// Generous bound: one run is ≤ MaxStepsPerRun kernel steps
	// (milliseconds); the full search takes seconds. A cancel that
	// leaks into the full search blows well past this.
	if elapsed > 3*time.Second {
		t.Fatalf("cancel took %v to return", elapsed)
	}
	if res.States == 0 && res.Runs == 0 {
		t.Fatal("canceled result carries no partial statistics")
	}
}

// TestExploreCancelBeforeStart: an already-canceled context yields a
// canceled partial result without a violation and without exhausting.
func TestExploreCancelBeforeStart(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Explore(sc, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Canceled || res.Exhausted || res.Violation != nil {
		t.Fatalf("pre-canceled explore: got canceled=%v exhausted=%v violation=%v",
			res.Canceled, res.Exhausted, res.Violation)
	}
}

// TestExploreProgress: the frontier-boundary progress hook fires with
// monotonically plausible snapshots and a final States consistent with
// the returned Result.
func TestExploreProgress(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	var lastStates int
	res, err := Explore(sc, Options{Progress: func(p Progress) {
		calls++
		if p.States < lastStates {
			t.Fatalf("states went backwards: %d after %d", p.States, lastStates)
		}
		lastStates = p.States
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation)
	}
	if calls == 0 {
		t.Fatal("progress hook never fired")
	}
	if lastStates > res.States {
		t.Fatalf("last progress snapshot saw %d states; result has %d", lastStates, res.States)
	}
}
