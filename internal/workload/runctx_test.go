package workload

import (
	"context"
	"testing"

	"multicube/internal/core"
)

// TestRunCtxCancel: a canceled context stops the generator between
// kernel batches with the partial-result marker set, and a background
// context reproduces Run exactly.
func TestRunCtxCancel(t *testing.T) {
	cfg := GenConfig{Seed: 7, Requests: 200, PShared: 0.5, PWrite: 0.3}

	full := Run(core.MustNew(core.Config{N: 2}), cfg)
	if full.Canceled {
		t.Fatal("uncanceled run reports Canceled")
	}

	same := RunCtx(context.Background(), core.MustNew(core.Config{N: 2}), cfg, nil)
	if same != full {
		t.Fatalf("RunCtx(background) diverged from Run: %+v vs %+v", same, full)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	part := RunCtx(ctx, core.MustNew(core.Config{N: 2}), cfg, nil)
	if !part.Canceled {
		t.Fatal("pre-canceled run not marked Canceled")
	}
	if part.References >= full.References {
		t.Fatalf("canceled run completed %d references (full run: %d)", part.References, full.References)
	}
}

// TestRunCtxProgress: the hook observes monotonically nondecreasing
// counters and ends at the final totals.
func TestRunCtxProgress(t *testing.T) {
	var calls int
	var lastRefs, lastEvents uint64
	rep := RunCtx(context.Background(), core.MustNew(core.Config{N: 2}), GenConfig{Seed: 3, Requests: 50, PShared: 0.5, PWrite: 0.3},
		func(refs, events uint64) {
			calls++
			if refs < lastRefs || events < lastEvents {
				t.Fatalf("progress went backwards: refs %d→%d events %d→%d", lastRefs, refs, lastEvents, events)
			}
			lastRefs, lastEvents = refs, events
		})
	if calls == 0 {
		t.Fatal("progress hook never fired")
	}
	if lastRefs != rep.References {
		t.Fatalf("final progress saw %d references; report has %d", lastRefs, rep.References)
	}
}
