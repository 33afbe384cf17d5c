package coherence

import (
	"testing"
)

// The incremental FPCache must satisfy the same row-permutation
// invariance as System.Fingerprint: relabeling the rows of a machine
// maps component-hashed fingerprints onto each other under the matching
// permutation. The hash values deliberately differ from Fingerprint's —
// only the induced equivalence partition matters to the model checker —
// so these tests compare FPCache against FPCache, never against the
// legacy byte-level hashes.

// fpcFP computes the FPCache fingerprint of s under perm (physical row
// -> canonical row; nil is identity).
func fpcFP(s *System, perm []int) uint64 { return fpcRC(s, perm, nil) }

// TestFPCacheRowPermutationInvariant mirrors
// TestFingerprintRowPermutationInvariant on the incremental path.
func TestFPCacheRowPermutationInvariant(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		script []fpOp
	}{
		{"two-writers", 2, []fpOp{{'w', 0, 0, 0}, {'w', 1, 1, 0}}},
		{"cross-column", 2, []fpOp{{'w', 0, 0, 1}, {'r', 1, 0, 1}, {'w', 1, 1, 2}}},
		{"mlt-churn", 2, []fpOp{{'w', 0, 0, 0}, {'w', 0, 0, 2}, {'w', 0, 0, 4}, {'r', 1, 1, 0}}},
		{"lock-and-data", 2, []fpOp{{'t', 0, 0, 0}, {'w', 1, 0, 2}, {'b', 1, 0, 2}}},
		{"alloc", 2, []fpOp{{'a', 0, 1, 3}, {'r', 1, 0, 3}}},
		{"three-rows", 3, []fpOp{{'w', 0, 0, 0}, {'r', 1, 2, 0}, {'w', 2, 1, 4}}},
	}
	perms2 := [][]int{{0, 1}, {1, 0}}
	perms3 := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, tc := range cases {
		perms := perms2
		if tc.n == 3 {
			perms = perms3
		}
		for _, steps := range []int{-1, 0, 3, 9} {
			base := buildState(t, tc.n, tc.script, nil, steps)
			want := fpcFP(base, nil)
			for _, rowMap := range perms {
				relabeled := buildState(t, tc.n, tc.script, rowMap, steps)
				if got := fpcFP(relabeled, invert(rowMap)); got != want {
					t.Errorf("%s (steps=%d): rows relabeled by %v FPCache fingerprint %#x, want %#x",
						tc.name, steps, rowMap, got, want)
				}
			}
		}
	}
}

// TestFPCacheIncrementalStability checks the incremental refresh: a
// cache that has been BeginPoint'd before further mutations must, after
// another BeginPoint, produce exactly what a fresh cache computes from
// scratch on the same machine.
func TestFPCacheIncrementalStability(t *testing.T) {
	rng := newScriptRand(0xfeedface)
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		script := randomScript(rng, 2, 5)
		k, s := buildStateSystem(t, 2, script)
		f := NewFPCache(s)
		perm := []int{0, 1}
		inv := []int{0, 1}
		for step := 0; k.Pending() > 0 && step < 30; step++ {
			k.Step()
			f.BeginPoint(nil)
			got := f.FPRC(perm, inv, perm, inv)
			fresh := NewFPCache(s)
			fresh.BeginPoint(nil)
			if want := fresh.FPRC(perm, inv, perm, inv); got != want {
				t.Fatalf("iter %d step %d (script %+v): incremental %#x, fresh %#x",
					i, step, script, got, want)
			}
		}
	}
}

// buildStateSystem is buildState without running the kernel, returning
// it so the caller can interleave stepping with fingerprinting.
func buildStateSystem(t testing.TB, n int, script []fpOp) (kern interface {
	Pending() int
	Step() bool
}, s *System) {
	t.Helper()
	sys := buildState(t, n, script, nil, 0)
	return sys.Kernel(), sys
}

// TestFPCacheRandomizedRowInvariance drives seeded random scripts
// through the FPCache permutation property at random interruption
// depths.
func TestFPCacheRandomizedRowInvariance(t *testing.T) {
	rng := newScriptRand(0x5eed2)
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		script := randomScript(rng, 2, 5)
		steps := int(rng.next() % 12)
		if steps == 11 {
			steps = -1
		}
		base := buildState(t, 2, script, nil, steps)
		relabeled := buildState(t, 2, script, []int{1, 0}, steps)
		if got, want := fpcFP(relabeled, []int{1, 0}), fpcFP(base, nil); got != want {
			t.Fatalf("iter %d (steps=%d, script %+v): swapped FPCache fingerprint %#x, want %#x",
				i, steps, script, got, want)
		}
	}
}

// FuzzFPCacheRowSwap extends FuzzFingerprintRowSwap to the incremental
// path: any script, interrupted at any depth, must FPCache-fingerprint
// identically after a row swap.
func FuzzFPCacheRowSwap(f *testing.F) {
	f.Add([]byte{0xff, 1, 0, 0})
	f.Add([]byte{4, 1, 0, 0, 0, 3, 2, 5, 1, 1})
	f.Add([]byte{0, 5, 2, 4, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 64 {
			t.Skip()
		}
		steps := int(data[0])
		if data[0] == 0xff {
			steps = -1
		}
		kinds := []byte{'r', 'w', 'a', 'b', 't'}
		var script []fpOp
		for i := 1; i+2 < len(data); i += 3 {
			script = append(script, fpOp{
				kind: kinds[int(data[i])%len(kinds)],
				row:  int(data[i+1]) % 2,
				col:  int(data[i+1]/2) % 2,
				line: uint64(data[i+2]) % 8,
			})
		}
		if len(script) == 0 {
			t.Skip()
		}
		base := buildState(t, 2, script, nil, steps)
		relabeled := buildState(t, 2, script, []int{1, 0}, steps)
		if got, want := fpcFP(relabeled, []int{1, 0}), fpcFP(base, nil); got != want {
			t.Fatalf("row swap changed FPCache fingerprint: %#x vs %#x (script %+v, steps %d)",
				got, want, script, steps)
		}
	})
}
