package mc

import (
	"os"
	"strings"
	"testing"
)

// TestLitmusPresetsSC explores the litmus-* presets to completion and
// requires a clean SC verdict from the cross-address checker on every
// interleaving's history. Per-preset cost varies by orders of magnitude,
// so the heavier two-variable tests hide behind -short, and the
// four-thread iriw family (1.2M–4.1M states, minutes to half an hour)
// plus the six-bus sb/wrc grids (~100–150k states, minutes on one core)
// behind MC_LITMUS_EXHAUSTIVE=1; EXPERIMENTS.md records their full-run
// numbers.
func TestLitmusPresetsSC(t *testing.T) {
	for _, name := range litmusPresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			base := strings.TrimSuffix(strings.TrimPrefix(name, "litmus-"), litmusSameColSuffix)
			base = strings.TrimSuffix(base, litmus3x3Suffix)
			switch base {
			case "iriw":
				if os.Getenv("MC_LITMUS_EXHAUSTIVE") == "" {
					t.Skip("iriw needs 1.2M–4.1M states (minutes to half an hour); set MC_LITMUS_EXHAUSTIVE=1")
				}
			case "sb", "wrc":
				if strings.HasSuffix(name, litmus3x3Suffix) {
					if os.Getenv("MC_LITMUS_EXHAUSTIVE") == "" {
						t.Skip("six-bus grid takes minutes; set MC_LITMUS_EXHAUSTIVE=1 (colsym_test covers the small 3x3 presets)")
					}
				} else if testing.Short() {
					t.Skip("heavier litmus preset; run without -short")
				}
			}
			sc, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Explore(sc, Options{MaxStates: 5_000_000})
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("%s: %v", name, res.Violation)
			}
			if !res.Exhausted {
				t.Fatalf("%s: not exhausted (states=%d budget=%v)", name, res.States, res.BudgetHit)
			}
			if res.SCChecks == 0 {
				t.Fatalf("%s: no completed histories were SC-checked", name)
			}
			if res.SCVerdict != "ok" || res.SCUndecided != 0 {
				t.Fatalf("%s: SC verdict %q (undecided=%d), want ok",
					name, res.SCVerdict, res.SCUndecided)
			}
			t.Logf("%s: %d states, %d SC checks, exhausted, verdict ok",
				name, res.States, res.SCChecks)
		})
	}
}

// TestStaleSharedMPViolation pins the subsystem's headline finding: the
// untimed interpretation of the protocol really does admit a cross-address
// SC violation when a writer on the reader's column races a row purge
// (see the stale-shared-mp preset comment for the placement argument).
// Per-address coherence holds on every interleaving — only the
// cross-address checker catches the stale Shared read — so this doubles
// as the end-to-end adversarial test that the checker finds real
// violations through the full explorer stack.
func TestStaleSharedMPViolation(t *testing.T) {
	sc, err := Preset("stale-shared-mp")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatalf("no violation found (states=%d); the SC window closed", res.States)
	}
	if res.Violation.Kind != "sc-total" {
		t.Fatalf("violation kind = %q, want sc-total: %v", res.Violation.Kind, res.Violation)
	}
	if res.SCVerdict != "violation" {
		t.Fatalf("SCVerdict = %q, want violation", res.SCVerdict)
	}
	// The history must show the smoking gun: a read of line 1's initial
	// value after line 2's written value was observed.
	if !strings.Contains(res.Violation.Msg, "no sequentially consistent total order") {
		t.Fatalf("violation message does not come from the SC search: %v", res.Violation)
	}
	// Replay must reproduce the same verdict from the minimized choices.
	rr, err := Replay(sc, res.Violation.Choices, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Violation == nil || rr.Violation.Kind != "sc-total" {
		t.Fatalf("replay did not reproduce the sc-total violation: %v", rr.Violation)
	}
	t.Logf("stale-shared-mp: violation in %d states, %d-choice counterexample",
		res.States, len(res.Violation.Choices))
}
