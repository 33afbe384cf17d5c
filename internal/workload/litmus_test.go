package workload

import (
	"reflect"
	"testing"

	"multicube/internal/memmodel"
)

// TestLitmusDESSweep runs every litmus test as a timed DES stress
// program over a spread of jitter seeds, in both home-column placements,
// and requires the captured history to pass the sequential-consistency
// checker every time. Unlike the untimed mc exploration — where the
// stale-shared-mp placement genuinely violates SC — the timed machine's
// deterministic bus scheduling has produced SC histories on every seed
// tried; this test pins that observation.
func TestLitmusDESSweep(t *testing.T) {
	seeds := 4
	if !testing.Short() {
		seeds = 16
	}
	runs, err := LitmusSweep("all", seeds, LitmusConfig{Rounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, l := range memmodel.LitmusTests() {
		want += seeds
		if l.Vars >= 2 {
			want += seeds
		}
	}
	if len(runs) != want {
		t.Fatalf("the sweep lists %d runs, want %d", len(runs), want)
	}
	for _, cfg := range runs {
		rep, err := RunLitmus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.History.Len(), cfg.Rounds*rep.Test.TotalOps(); got != want {
			t.Fatalf("%s %s seed=%d: history has %d events, want %d",
				cfg.Test, cfg.Placement(), cfg.Seed, got, want)
		}
		if rep.Check.Verdict != memmodel.VerdictOK {
			t.Fatalf("%s %s seed=%d: verdict %v: %s\nhistory:\n%s",
				cfg.Test, cfg.Placement(), cfg.Seed, rep.Check.Verdict, rep.Check.Reason, rep.History)
		}
		if rep.Elapsed == 0 {
			t.Fatalf("%s %s seed=%d: no simulated time elapsed", cfg.Test, cfg.Placement(), cfg.Seed)
		}
	}
}

// TestLitmusSweepOrder pins the order both front ends (multicube-sim
// -memmodel, the farm's litmus job) run and report a sweep in: placement
// outside seed, same-column only where it differs, seeds from the base.
func TestLitmusSweepOrder(t *testing.T) {
	base := LitmusConfig{N: 3, Rounds: 2, Seed: 10, SCNodes: 7}
	runs, err := LitmusSweep("mp", 2, base)
	if err != nil {
		t.Fatal(err)
	}
	var want []LitmusConfig
	for _, c := range []struct {
		same bool
		seed uint64
	}{{false, 10}, {false, 11}, {true, 10}, {true, 11}} {
		cfg := base
		cfg.Test, cfg.SameColumn, cfg.Seed = "mp", c.same, c.seed
		want = append(want, cfg)
	}
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("sweep of mp:\n %+v\nwant\n %+v", runs, want)
	}
	// One variable: the same-column placement is the split one.
	if runs, _ := LitmusSweep("coww", 3, base); len(runs) != 3 || runs[2].SameColumn {
		t.Fatalf("sweep of coww: %+v", runs)
	}
	if _, err := LitmusSweep("nope", 1, base); err == nil {
		t.Fatal("unknown test accepted")
	}
}

// TestLitmusUnknownTest rejects bad names and oversized thread counts.
func TestLitmusUnknownTest(t *testing.T) {
	if _, err := RunLitmus(LitmusConfig{Test: "nope"}); err == nil {
		t.Fatal("unknown test accepted")
	}
	if _, err := RunLitmus(LitmusConfig{Test: "iriw", N: 1}); err == nil {
		t.Fatal("iriw on a 1×1 machine accepted")
	}
}
