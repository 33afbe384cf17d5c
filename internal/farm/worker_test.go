package farm

import "testing"

// TestSimExplicitZeroReachesTheWorkload: a sim spec's explicit zero
// probabilities reach the generator as zeros, and omitted ones as the
// defaults.
func TestSimExplicitZeroReachesTheWorkload(t *testing.T) {
	for _, c := range []struct {
		body           string
		pShared, write float64
	}{
		{`{"kind":"sim","sim":{"p_shared":0,"p_write":0}}`, 0, 0},
		{`{"kind":"sim","sim":{}}`, 0.5, 0.3},
	} {
		spec, _ := mcSpec(t, c.body)
		if g := genConfig(spec.Sim); g.PShared != c.pShared || g.PWrite != c.write {
			t.Errorf("%s: generator got p_shared=%v p_write=%v, want %v and %v", c.body, g.PShared, g.PWrite, c.pShared, c.write)
		}
	}
}
