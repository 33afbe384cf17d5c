package mc

import (
	"strings"
	"testing"
)

// TestModelCheckSmall exhaustively explores the two cheap presets and
// expects the protocol to survive every interleaving. This is the
// checked-in regression the ROADMAP asks for: any protocol change that
// opens a race window in these bounded scenarios fails here with a
// replayable counterexample in the failure message.
func TestModelCheckSmall(t *testing.T) {
	for _, name := range []string{"read-race", "readmod-race"} {
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
			t.Fatalf("%s: bounded space not exhausted (states=%d, budget=%v)", name, res.States, res.BudgetHit)
		}
		if res.States < 1000 {
			t.Fatalf("%s: only %d states explored; the scenario lost its interleavings", name, res.States)
		}
		t.Logf("%s: %d states, %d runs, exhausted", name, res.States, res.Runs)
	}
}

// TestModelCheckSyncPresets runs the two expensive presets under a state
// budget so the whole package stays fast; the full exhaustive runs live
// in cmd/multicube-mc (see EXPERIMENTS.md for the exhaustive counts).
func TestModelCheckSyncPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("sync presets are slow; run without -short")
	}
	for _, name := range []string{"sync-race", "mlt-overflow-lock"} {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(sc, Options{MaxStates: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("%s: %v", name, res.Violation)
		}
		if !res.Exhausted && !res.BudgetHit {
			t.Fatalf("%s: neither exhausted nor budget-limited (states=%d)", name, res.States)
		}
		t.Logf("%s: %d states within budget, exhausted=%v", name, res.States, res.Exhausted)
	}
}

// TestInjectedBugCaught switches off the stale in-flight reply defense
// (the DESIGN.md §5.6a protocol gap) and expects the checker to find the
// stale-sharer state, minimize the counterexample, and replay it to the
// same violation with an annotated bus trace.
func TestInjectedBugCaught(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	sc.InjectStaleReply = true
	res, err := Explore(sc, Options{MaxStates: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("stale-reply injection not caught (%d states explored)", res.States)
	}
	if res.Violation.Kind != "invariant" {
		t.Fatalf("violation kind = %q, want invariant: %v", res.Violation.Kind, res.Violation)
	}
	if !strings.Contains(res.Violation.Msg, "shared") {
		t.Fatalf("violation does not describe a stale sharer: %v", res.Violation)
	}
	// The minimized counterexample should be short: the race needs only
	// one deviation from the default schedule.
	nonDefault := 0
	for _, c := range res.Violation.Choices {
		if c != 0 {
			nonDefault++
		}
	}
	if nonDefault == 0 || nonDefault > 3 {
		t.Fatalf("minimized counterexample has %d non-default choices (%v), want 1..3",
			nonDefault, res.Violation.Choices)
	}
	// Replay must reproduce it and carry the bus-operation trace.
	rr, err := Replay(sc, res.Violation.Choices, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Violation == nil || rr.Violation.Kind != res.Violation.Kind {
		t.Fatalf("replay did not reproduce the violation: %v", rr.Violation)
	}
	if rr.Log.Len() == 0 {
		t.Fatalf("replay produced no bus-operation trace")
	}
	var sb strings.Builder
	if err := rr.Log.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "READMOD") || !strings.Contains(sb.String(), "READ(") {
		t.Fatalf("trace lacks the racing transactions:\n%s", sb.String())
	}
}

// TestPORCrossCheck verifies the ample-set reduction hides nothing: with
// and without the reduction the clean scenario exhausts with no
// violation, and the injected bug is found either way.
func TestPORCrossCheck(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		res, err := Explore(sc, Options{MaxStates: 400000, DisablePOR: disable})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil || !res.Exhausted {
			t.Fatalf("POR disabled=%v: violation=%v exhausted=%v", disable, res.Violation, res.Exhausted)
		}
	}
	sc.InjectStaleReply = true
	for _, disable := range []bool{false, true} {
		res, err := Explore(sc, Options{MaxStates: 400000, DisablePOR: disable})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation == nil {
			t.Fatalf("POR disabled=%v: injected bug not found", disable)
		}
	}
}

// TestExplorationDeterministic re-runs an exploration and expects
// identical state and run counts: the checker itself must be as
// reproducible as the simulator it drives.
func TestExplorationDeterministic(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Explore(sc, Options{MaxStates: 400000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(sc, Options{MaxStates: 400000})
	if err != nil {
		t.Fatal(err)
	}
	if a.States != b.States || a.Runs != b.Runs {
		t.Fatalf("exploration not deterministic: (%d states, %d runs) vs (%d states, %d runs)",
			a.States, a.Runs, b.States, b.Runs)
	}
}

// TestIterativeDeepening checks the deepening schedule still finds the
// injected bug and reports a depth no larger than a full-depth pass
// would need, and that it finds a shorter counterexample than a
// minimized full-depth one where that is the reason to deepen.
func TestIterativeDeepening(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	sc.InjectStaleReply = true
	res, err := Explore(sc, Options{MaxStates: 400000, DepthStep: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("deepening missed the injected bug")
	}
	if len(res.Violation.Choices) > res.Depth {
		t.Fatalf("counterexample length %d exceeds the depth bound %d", len(res.Violation.Choices), res.Depth)
	}

	// Why DepthStep stays: on stale-shared-mp the full-depth search
	// minimizes its sc-total counterexample to 50 choices, and deepening
	// by 10 finds one of 36.
	if sc, err = Preset("stale-shared-mp"); err != nil {
		t.Fatal(err)
	}
	lengths := make(map[int]int) // DepthStep → counterexample length
	for _, step := range []int{0, 10} {
		res, err := Explore(sc, Options{MaxStates: 200000, DepthStep: step})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation == nil || res.Violation.Kind != "sc-total" {
			t.Fatalf("DepthStep %d: violation %v, want sc-total", step, res.Violation)
		}
		lengths[step] = len(res.Violation.Choices)
	}
	if lengths[10] >= lengths[0] {
		t.Fatalf("deepening no longer shortens counterexamples: %d choices with DepthStep 10, %d at full depth",
			lengths[10], lengths[0])
	}
	t.Logf("counterexample: %d choices at full depth, %d with DepthStep 10", lengths[0], lengths[10])
}

// TestStateBudget checks the -budget path stops exploration cleanly.
func TestStateBudget(t *testing.T) {
	sc, err := Preset("readmod-race")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(sc, Options{MaxStates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BudgetHit {
		t.Fatalf("budget of 50 states not reported as hit (states=%d)", res.States)
	}
	if res.Exhausted {
		t.Fatalf("budget-limited run claims exhaustion")
	}
	if res.States > 50 {
		t.Fatalf("visited %d states past the budget of 50", res.States)
	}
}

// TestWitness unit-tests the per-address sequential-consistency checker
// on hand-built histories.
func TestWitness(t *testing.T) {
	sc := &Scenario{Name: "w", N: 2, Procs: []Proc{
		{Ops: []ProcOp{{OpWrite, 1}}},
		{Ops: []ProcOp{{OpRead, 1}}},
	}}
	fresh := func() *witness { return newWitness(sc) }

	w := fresh()
	w.write(0, 1, 0, 100)
	w.read(1, 1, 100)
	w.write(1, 1, 100, 200)
	w.read(0, 1, 200)
	if v := w.check(); v != nil {
		t.Fatalf("legal history flagged: %v", v)
	}

	w = fresh()
	w.write(0, 1, 0, 100)
	w.write(1, 1, 0, 200) // both overwrote the initial value: lost update
	if v := w.check(); v == nil || v.Kind != "sc" {
		t.Fatalf("lost update not flagged: %v", v)
	}

	w = fresh()
	w.write(0, 1, 0, 100)
	w.read(1, 1, 100)
	w.read(1, 1, 0) // traveled back in time
	if v := w.check(); v == nil || v.Kind != "sc" {
		t.Fatalf("non-monotonic read not flagged: %v", v)
	}

	w = fresh()
	w.read(0, 1, 77) // no write produced 77
	if v := w.check(); v == nil || v.Kind != "sc" {
		t.Fatalf("read of unwritten value not flagged: %v", v)
	}
}

// TestPresetsValidate makes sure every preset passes its own validation.
func TestPresetsValidate(t *testing.T) {
	for _, name := range Presets() {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.FillDefaults()
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Preset("no-such"); err == nil {
		t.Fatalf("unknown preset accepted")
	}
}
