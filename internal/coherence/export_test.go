package coherence

import "testing"

// CheckSkips is checkSkips for the tests of package coherence_test, which
// drive the machine through internal/mc: it returns how many components
// were skipped and checked so far, and how many of them by a Load, and
// how many components a Save or Load looks at.
func CheckSkips(t testing.TB, s *System) (skips func() (all, byLoad int), components int) {
	c := checkSkips(t, s)
	return func() (int, int) { return c.skips, c.loads }, len(s.labels)
}
