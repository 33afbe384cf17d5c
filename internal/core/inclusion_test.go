package core

import (
	"strings"
	"testing"
)

// TestInclusionViolationDetected proves the L1⊆L2 discipline is enforced
// by the coherence invariant suite itself (New registers every processor
// cache via coherence.RegisterInclusion): evicting a line from the
// snooping cache behind the machine's back, while the L1 still holds it,
// must surface as an invariant violation. The back door leaves the
// machine's holder index behind too, which the suite reports after it.
func TestInclusionViolationDetected(t *testing.T) {
	m := testMachine(t, Config{N: 2, BlockWords: 4, L1Lines: 8, L1Assoc: 2})
	m.SeedMemory(0, []uint64{1})
	m.Spawn(0, func(c *Ctx) { c.Load(0) })
	m.Run()
	if errs := m.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("clean machine: unexpected violations %v", errs)
	}
	m.Processor(0).node.Cache().Drop(0)
	errs := m.CheckInvariants()
	if len(errs) != 2 || !strings.Contains(errs[0].Error(), "inclusion violated") || !strings.Contains(errs[1].Error(), "holder index") {
		t.Fatalf("got %v, want exactly one inclusion violation and the holder index's drift", errs)
	}
	if !strings.Contains(errs[0].Error(), "processor 0") {
		t.Errorf("violation %v does not name processor 0", errs[0])
	}
}
