package core_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"multicube/internal/core"
	"multicube/internal/sim"
	"multicube/internal/topology"
	"multicube/internal/workload"

	"multicube/internal/coherence"
)

// runSeeded drives one seeded 4×4 workload on a fresh machine, with an
// optional chooser installed, and returns a digest of every bus
// operation in issue order plus the full metrics rendering. Two byte-
// identical digests mean two byte-identical executions.
func runSeeded(t *testing.T, ch sim.Chooser) (uint64, string) {
	t.Helper()
	m := core.MustNew(core.Config{N: 4, BlockWords: 4})
	if ch != nil {
		m.System().EnableModelChecking(ch)
	}
	h := fnv.New64a()
	m.System().OpLog = func(dim coherence.Dim, issuer topology.Coord, op *coherence.Op) {
		fmt.Fprintf(h, "%v %v %v @%d\n", dim, issuer, op, m.Kernel().Now())
	}
	rep := workload.Run(m, workload.GenConfig{Seed: 42, Requests: 200, PShared: 0.6, PWrite: 0.4})
	if errs := m.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants violated: %v", errs[0])
	}
	digest := h.Sum64()
	summary := fmt.Sprintf("%s\nreport %+v\n", m.Metrics(), rep)
	return digest, summary
}

// TestSeededRunsByteIdentical is the determinism regression: the same
// seeded workload run twice must produce the identical bus-operation
// sequence and identical metrics, byte for byte.
func TestSeededRunsByteIdentical(t *testing.T) {
	d1, s1 := runSeeded(t, nil)
	d2, s2 := runSeeded(t, nil)
	if d1 != d2 {
		t.Fatalf("op-log digests differ across identical seeded runs: %#x vs %#x", d1, d2)
	}
	if s1 != s2 {
		t.Fatalf("metrics differ across identical seeded runs:\n--- run 1\n%s--- run 2\n%s", s1, s2)
	}
}

// firstChooser picks candidate 0 at every choice point: the earliest
// pending event, and the arbitration policy's own grant.
type firstChooser struct{}

func (firstChooser) Choose(sim.ChoicePoint, []sim.Candidate) int { return 0 }

// TestDefaultChooserReproducesSchedules pins the explorer's mode to the
// DES: the untimed search (EnableModelChecking) always taking candidate
// 0 must reproduce the nil-chooser schedules exactly, deferred grants
// and all — the seam may add choice points but must not move them.
func TestDefaultChooserReproducesSchedules(t *testing.T) {
	dNil, sNil := runSeeded(t, nil)
	dDef, sDef := runSeeded(t, firstChooser{})
	if dNil != dDef {
		t.Fatalf("the first-candidate chooser changed the bus-operation sequence: %#x vs %#x", dNil, dDef)
	}
	if sNil != sDef {
		t.Fatalf("the first-candidate chooser changed the metrics:\n--- nil\n%s--- first\n%s", sNil, sDef)
	}
}
