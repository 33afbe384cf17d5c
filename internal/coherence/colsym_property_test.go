package coherence

import (
	"fmt"
	"testing"
)

// Property tests for the conditional column symmetry (FingerprintRC and
// FPCache.FPRC): relabeling the columns of a machine maps fingerprints
// onto each other under the matching permutation, PROVIDED the
// relabeling fixes the home column of every line in play. All scripts
// here run on a 3×3 grid and touch only lines 0 and 3 — both homed on
// column 0 — so every permutation of columns {1, 2} is admissible.

// colMaps3 are the column relabelings of a 3-wide grid that fix column
// 0 (the home column of every line the scripts use).
var colMaps3 = [][]int{{0, 1, 2}, {0, 2, 1}}

// rowMaps3 are all row relabelings of a 3-tall grid.
var rowMaps3 = [][]int{
	{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0},
}

// colScripts exercise the column-coupled state: cross-column sharing,
// MLT entries on relabeled columns, locks, and writebacks — all on
// home-column-0 lines, issued from nodes spread over all three columns.
var colScripts = []struct {
	name   string
	script []fpOp
}{
	{"two-cols-one-line", []fpOp{{'w', 0, 1, 0}, {'r', 1, 2, 0}}},
	{"home-and-free", []fpOp{{'w', 0, 0, 0}, {'w', 1, 1, 3}, {'r', 2, 2, 0}}},
	{"mlt-on-free-col", []fpOp{{'w', 0, 1, 0}, {'w', 0, 1, 3}, {'b', 0, 1, 0}}},
	{"lock-across-cols", []fpOp{{'t', 0, 2, 0}, {'w', 1, 1, 3}}},
	{"alloc-free-col", []fpOp{{'a', 0, 2, 3}, {'r', 1, 1, 3}, {'w', 2, 0, 0}}},
}

// fpcRC computes the FPCache fingerprint of s under the (row, column)
// relabeling pair (nil means identity for either).
func fpcRC(s *System, perm, cperm []int) uint64 {
	n := s.cfg.N
	ident := make([]int, n)
	for i := range ident {
		ident[i] = i
	}
	if perm == nil {
		perm = ident
	}
	if cperm == nil {
		cperm = ident
	}
	inv := make([]int, n)
	cinv := make([]int, n)
	for phys, canon := range perm {
		inv[canon] = phys
	}
	for phys, canon := range cperm {
		cinv[canon] = phys
	}
	f := NewFPCache(s)
	f.BeginPoint(nil)
	return f.FPRC(perm, inv, cperm, cinv)
}

// fixed3 marks column 0, the one column no relabeling of colMaps3 moves.
var fixed3 = []bool{true, false, false}

// canonicalBySorting is the explorer's canonical form on a bare 3×3
// machine: the minimum FPRC over the relabelings of rowMaps3 × colMaps3
// that leave the row and free-column signatures in non-decreasing order,
// with the signatures it sorted by and the relabelings it combined.
func canonicalBySorting(s *System) (fp uint64, rowSig, colSig []uint64, combined int) {
	f := NewFPCache(s)
	f.BeginPoint(nil)
	rowSig, colSig = make([]uint64, 3), make([]uint64, 3)
	f.Signatures(fixed3, rowSig, colSig)
	fp = ^uint64(0)
	for _, perm := range rowMaps3 {
		inv := invert(perm)
		if rowSig[inv[0]] > rowSig[inv[1]] || rowSig[inv[1]] > rowSig[inv[2]] {
			continue
		}
		for _, cperm := range colMaps3 {
			cinv := invert(cperm)
			if colSig[cinv[1]] > colSig[cinv[2]] {
				continue
			}
			combined++
			if v := f.FPRC(perm, inv, cperm, cinv); v < fp {
				fp = v
			}
		}
	}
	return fp, rowSig, colSig, combined
}

// checkSortedTwin holds a state and its relabeled twin to what the
// canonical form by sorting rests on: each signature moves with its row
// or free column, and the canonical values are equal.
func checkSortedTwin(t testing.TB, base, relabeled *System, rowMap, colMap []int, what string) {
	t.Helper()
	want, rowSig, colSig, combined := canonicalBySorting(base)
	got, twinRow, twinCol, _ := canonicalBySorting(relabeled)
	if combined == 0 {
		t.Fatalf("%s: no relabeling sorts the signatures", what)
	}
	for r := range rowSig {
		if twinRow[rowMap[r]] != rowSig[r] {
			t.Errorf("%s: row %d's signature %#x is %#x at row %d of the twin", what, r, rowSig[r], twinRow[rowMap[r]], rowMap[r])
		}
	}
	for c := range colSig {
		if !fixed3[c] && twinCol[colMap[c]] != colSig[c] {
			t.Errorf("%s: column %d's signature %#x is %#x at column %d of the twin", what, c, colSig[c], twinCol[colMap[c]], colMap[c])
		}
	}
	if got != want {
		t.Errorf("%s: canonical fingerprint %#x, the twin's %#x", what, want, got)
	}
}

// TestSignaturesFollowRelabeling checks the invariance on all twelve
// relabeled twins of every scripted state at several kernel depths, and
// that the signatures tell rows apart often enough to be worth sorting
// by: a quiescent state whose rows all did different things has one
// sorting relabeling, not twelve.
func TestSignaturesFollowRelabeling(t *testing.T) {
	for _, tc := range colScripts {
		for _, steps := range []int{-1, 0, 3, 9} {
			base := buildState(t, 3, tc.script, nil, steps)
			for _, rowMap := range rowMaps3 {
				for _, colMap := range colMaps3 {
					relabeled := buildStateRC(t, 3, tc.script, rowMap, colMap, steps)
					checkSortedTwin(t, base, relabeled, rowMap, colMap,
						fmt.Sprintf("%s (steps=%d, rows %v, cols %v)", tc.name, steps, rowMap, colMap))
				}
			}
		}
	}
	distinct := buildState(t, 3, []fpOp{{'w', 0, 1, 0}, {'r', 1, 2, 3}, {'t', 2, 0, 3}}, nil, -1)
	if _, _, _, combined := canonicalBySorting(distinct); combined != 1 {
		t.Errorf("three rows and two free columns that all differ: %d relabelings combined, want 1", combined)
	}
	empty := buildState(t, 3, nil, nil, -1)
	if _, _, _, combined := canonicalBySorting(empty); combined != 12 {
		t.Errorf("the empty machine ties everywhere: %d relabelings combined, want all 12", combined)
	}
}

// TestFingerprintRowColPermutationInvariant builds each scripted state
// once as written and once under every (row relabeling × admissible
// column relabeling) pair, at several kernel depths, and checks
// FingerprintRC maps each relabeled state back onto the base.
func TestFingerprintRowColPermutationInvariant(t *testing.T) {
	for _, tc := range colScripts {
		for _, steps := range []int{-1, 0, 3, 9} {
			base := buildState(t, 3, tc.script, nil, steps)
			want := base.FingerprintRC(nil, nil, nil)
			if got := base.Fingerprint(nil, nil); got != want {
				t.Fatalf("%s: identity FingerprintRC %#x differs from Fingerprint %#x", tc.name, want, got)
			}
			for _, rowMap := range rowMaps3 {
				for _, colMap := range colMaps3 {
					relabeled := buildStateRC(t, 3, tc.script, rowMap, colMap, steps)
					if got := relabeled.FingerprintRC(invert(rowMap), invert(colMap), nil); got != want {
						t.Errorf("%s (steps=%d): rows %v cols %v fingerprint %#x, want %#x",
							tc.name, steps, rowMap, colMap, got, want)
					}
				}
			}
		}
	}
}

// TestFPCacheRowColPermutationInvariant mirrors the invariance property
// on the incremental path (FPRC), including the packed-snarf column
// permute that only runs when cperm is not the identity.
func TestFPCacheRowColPermutationInvariant(t *testing.T) {
	for _, tc := range colScripts {
		for _, steps := range []int{-1, 0, 3, 9} {
			base := buildState(t, 3, tc.script, nil, steps)
			want := fpcRC(base, nil, nil)
			for _, rowMap := range rowMaps3 {
				for _, colMap := range colMaps3 {
					relabeled := buildStateRC(t, 3, tc.script, rowMap, colMap, steps)
					if got := fpcRC(relabeled, invert(rowMap), invert(colMap)); got != want {
						t.Errorf("%s (steps=%d): rows %v cols %v FPCache fingerprint %#x, want %#x",
							tc.name, steps, rowMap, colMap, got, want)
					}
				}
			}
		}
	}
}

// TestFingerprintRCCanonicalizesFreeColumns pins the payoff: two states
// differing only in WHICH free column a node used share one canonical
// fingerprint once minimized over admissible column relabelings, while
// states differing in home-column content stay distinct.
func TestFingerprintRCCanonicalizesFreeColumns(t *testing.T) {
	canonical := func(s *System) uint64 {
		best := ^uint64(0)
		for _, rowMap := range rowMaps3 {
			for _, colMap := range colMaps3 {
				if fp := s.FingerprintRC(rowMap, colMap, nil); fp < best {
					best = fp
				}
			}
		}
		return best
	}
	onCol1 := buildState(t, 3, []fpOp{{'w', 0, 1, 0}}, nil, -1)
	onCol2 := buildState(t, 3, []fpOp{{'w', 0, 2, 0}}, nil, -1)
	if a, b := canonical(onCol1), canonical(onCol2); a != b {
		t.Errorf("same write from symmetric free columns canonicalizes apart: %#x vs %#x", a, b)
	}
	line0 := buildState(t, 3, []fpOp{{'w', 0, 1, 0}}, nil, -1)
	line3 := buildState(t, 3, []fpOp{{'w', 0, 1, 3}}, nil, -1)
	if a, b := canonical(line0), canonical(line3); a == b {
		t.Errorf("writes to distinct lines share canonical fingerprint %#x", a)
	}
}

// TestFPCacheRandomizedRowColInvariance drives seeded random
// home-column-0 scripts through the combined relabeling property at
// random interruption depths, on both fingerprint paths.
func TestFPCacheRandomizedRowColInvariance(t *testing.T) {
	rng := newScriptRand(0xc01c01)
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		script := randomHomeColScript(rng, 3, 5)
		steps := int(rng.next() % 12)
		if steps == 11 {
			steps = -1
		}
		rowMap := rowMaps3[rng.next()%uint64(len(rowMaps3))]
		colMap := colMaps3[rng.next()%uint64(len(colMaps3))]
		base := buildState(t, 3, script, nil, steps)
		relabeled := buildStateRC(t, 3, script, rowMap, colMap, steps)
		perm, cperm := invert(rowMap), invert(colMap)
		if got, want := relabeled.FingerprintRC(perm, cperm, nil), base.FingerprintRC(nil, nil, nil); got != want {
			t.Fatalf("iter %d (steps=%d, rows %v cols %v, script %+v): legacy %#x, want %#x",
				i, steps, rowMap, colMap, script, got, want)
		}
		if got, want := fpcRC(relabeled, perm, cperm), fpcRC(base, nil, nil); got != want {
			t.Fatalf("iter %d (steps=%d, rows %v cols %v, script %+v): FPCache %#x, want %#x",
				i, steps, rowMap, colMap, script, got, want)
		}
		checkSortedTwin(t, base, relabeled, rowMap, colMap,
			fmt.Sprintf("iter %d (steps=%d, rows %v cols %v, script %+v)", i, steps, rowMap, colMap, script))
	}
}

// randomHomeColScript is randomScript restricted to lines homed on
// column 0 of an n-wide grid (lines 0 and n).
func randomHomeColScript(r *scriptRand, n, maxOps int) []fpOp {
	kinds := []byte{'r', 'w', 'w', 'a', 'b', 't'}
	ops := 1 + int(r.next()%uint64(maxOps))
	script := make([]fpOp, ops)
	for i := range script {
		script[i] = fpOp{
			kind: kinds[r.next()%uint64(len(kinds))],
			row:  int(r.next() % uint64(n)),
			col:  int(r.next() % uint64(n)),
			line: uint64(n) * (r.next() % 2),
		}
	}
	return script
}

// FuzzFingerprintRowColSwap fuzzes the combined relabeling: any
// home-column-0 script on the 3×3 grid, interrupted at any depth, must
// fingerprint identically (on both paths) after any row relabeling
// combined with the free-column swap, its signatures must move with their
// rows and columns, and its canonical form by sorting must not change.
func FuzzFingerprintRowColSwap(f *testing.F) {
	f.Add([]byte{0xff, 2, 1, 0, 0})
	f.Add([]byte{4, 0, 1, 4, 1, 3, 7, 0})
	f.Add([]byte{0, 5, 5, 2, 1, 0, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 64 {
			t.Skip()
		}
		steps := int(data[0])
		if data[0] == 0xff {
			steps = -1
		}
		rowMap := rowMaps3[int(data[1])%len(rowMaps3)]
		colMap := colMaps3[1] // the non-identity relabeling
		kinds := []byte{'r', 'w', 'a', 'b', 't'}
		var script []fpOp
		for i := 2; i+2 < len(data); i += 3 {
			script = append(script, fpOp{
				kind: kinds[int(data[i])%len(kinds)],
				row:  int(data[i+1]) % 3,
				col:  int(data[i+1]/3) % 3,
				line: 3 * (uint64(data[i+2]) % 2),
			})
		}
		if len(script) == 0 {
			t.Skip()
		}
		base := buildState(t, 3, script, nil, steps)
		relabeled := buildStateRC(t, 3, script, rowMap, colMap, steps)
		perm, cperm := invert(rowMap), invert(colMap)
		if got, want := relabeled.FingerprintRC(perm, cperm, nil), base.FingerprintRC(nil, nil, nil); got != want {
			t.Fatalf("relabeling changed fingerprint: %#x vs %#x (rows %v, script %+v, steps %d)",
				got, want, rowMap, script, steps)
		}
		if got, want := fpcRC(relabeled, perm, cperm), fpcRC(base, nil, nil); got != want {
			t.Fatalf("relabeling changed FPCache fingerprint: %#x vs %#x (rows %v, script %+v, steps %d)",
				got, want, rowMap, script, steps)
		}
		checkSortedTwin(t, base, relabeled, rowMap, colMap, fmt.Sprintf("rows %v, script %+v, steps %d", rowMap, script, steps))
	})
}
