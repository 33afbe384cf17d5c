package mc

import (
	"reflect"
	"strings"
	"testing"

	"multicube/internal/topology"
)

// TestColPermutations pins the admissible-relabeling enumeration: only
// permutations fixing every used home column, identity when nothing is
// free, factorial of the free set otherwise, with the same >4 guard as
// rowPermutations.
func TestColPermutations(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		fixed []bool
		want  [][]int
	}{
		{"all-used", 2, []bool{true, true}, [][]int{{0, 1}}},
		{"one-free", 2, []bool{true, false}, [][]int{{0, 1}}},
		{"two-free", 3, []bool{true, false, false}, [][]int{{0, 1, 2}, {0, 2, 1}}},
		{"middle-fixed", 3, []bool{false, true, false}, [][]int{{0, 1, 2}, {2, 1, 0}}},
		{"guard", 6, []bool{false, false, false, false, false, false}, [][]int{{0, 1, 2, 3, 4, 5}}},
	}
	for _, tc := range cases {
		if got := colPermutations(tc.n, tc.fixed); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: colPermutations(%d, %v) = %v, want %v", tc.name, tc.n, tc.fixed, got, tc.want)
		}
	}
}

// TestUsedHomeColumns checks the derivation from programs: home column
// of line L on an N-wide grid is L % N, nothing else is marked.
func TestUsedHomeColumns(t *testing.T) {
	sc := Scenario{N: 3, Procs: []Proc{
		{At: topology.Coord{Row: 0, Col: 2}, Ops: []ProcOp{{Kind: OpWrite, Line: 0}, {Kind: OpRead, Line: 3}}},
		{At: topology.Coord{Row: 1, Col: 1}, Ops: []ProcOp{{Kind: OpWrite, Line: 4}}},
	}}
	want := []bool{true, true, false} // lines 0,3 → col 0; line 4 → col 1; proc placement is irrelevant
	if got := usedHomeColumns(&sc); !reflect.DeepEqual(got, want) {
		t.Errorf("usedHomeColumns = %v, want %v", got, want)
	}
}

// colPermuteScenario relabels every processor placement's column by
// colMap, leaving programs (and therefore home columns) untouched.
func colPermuteScenario(sc Scenario, colMap []int) Scenario {
	procs := make([]Proc, len(sc.Procs))
	copy(procs, sc.Procs)
	for i := range procs {
		procs[i].At.Col = colMap[procs[i].At.Col]
	}
	sc.Procs = procs
	return sc
}

// TestExploreColumnSymmetricPlacements is the end-to-end symmetry
// property: moving a scenario's processors among the free (never homed
// on) columns must not change the canonical state space — identical
// state count, run count, and verdict. litmus-corr-3x3 homes every
// line on column 0, so any relabeling fixing column 0 is admissible.
func TestExploreColumnSymmetricPlacements(t *testing.T) {
	base, err := Preset("litmus-corr-3x3")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxStates: 40000}
	want, err := Explore(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Violation != nil {
		t.Fatalf("base: %v", want.Violation)
	}
	if !want.Exhausted {
		t.Fatalf("base space not exhausted (states=%d); counts would not be comparable", want.States)
	}
	for _, colMap := range [][]int{{0, 2, 1}} {
		moved := colPermuteScenario(base, colMap)
		moved.Name = base.Name + "-moved"
		got, err := Explore(moved, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.States != want.States || got.Runs != want.Runs || (got.Violation == nil) != (want.Violation == nil) {
			t.Errorf("colMap %v: states=%d runs=%d, want states=%d runs=%d",
				colMap, got.States, got.Runs, want.States, want.Runs)
		}
	}
}

// TestExploreColumnSymmetryCrossCheck runs a 3×3 single-home-column
// preset with CheckFP, which recomputes every canonical fingerprint
// from scratch and holds it in bijection with the full-walk reference
// (all row × column relabelings), panicking on divergence.
func TestExploreColumnSymmetryCrossCheck(t *testing.T) {
	sc, err := Preset("litmus-corr-3x3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(sc, Options{MaxStates: 20000, CheckFP: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("%s: %v", sc.Name, res.Violation)
	}
}

// TestSharedColumnPerms pins which presets get non-identity column
// relabelings: the -3x3 single-home-column family does (two free
// columns), the 2×2 presets do not (at most one free column).
func TestSharedColumnPerms(t *testing.T) {
	count := func(name string) int {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.FillDefaults()
		opts := Options{}
		return len(newShared(&sc, &opts).cperms)
	}
	if got := count("litmus-sb-3x3"); got != 2 {
		t.Errorf("litmus-sb-3x3: %d column relabelings, want 2", got)
	}
	if got := count("litmus-sb-1col"); got != 1 {
		t.Errorf("litmus-sb-1col: %d column relabelings, want 1 (only one free column)", got)
	}
	if got := count("litmus-sb"); got != 1 {
		t.Errorf("litmus-sb: %d column relabelings, want 1 (every home column used)", got)
	}
}

// TestCanonicalFormCombinesPerPoint holds the canonical form to what it
// is for. Each of these 3×3 grids has twelve relabelings; sorting rows
// and free columns by signature must leave about one to combine where the
// programs differ (litmus-coww-3x3) and only the ties where they do not
// (sync-col-3x3 runs one program three times, snarf-serve-row places two
// idle readers alike) — FPCombines ÷ FPPoints near 12 would mean the
// signatures tell nothing apart and the n! loop is back.
func TestCanonicalFormCombinesPerPoint(t *testing.T) {
	for _, c := range []struct {
		preset string
		most   float64
	}{{"litmus-coww-3x3", 1.1}, {"sync-col-3x3", 2.5}, {"snarf-serve-row", 2.5}} {
		sc, err := Preset(c.preset)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(sc, Options{MaxStates: 8000})
		if err != nil {
			t.Fatal(err)
		}
		per := float64(res.FPCombines) / float64(res.FPPoints)
		if res.FPPoints == 0 || per < 1 || per > c.most {
			t.Errorf("%s: %d relabelings combined at %d choice points (%.2f a point), want 1..%.1f",
				c.preset, res.FPCombines, res.FPPoints, per, c.most)
		}
	}
}

// TestFPOracleHoldsABijection: -checkfp's partition oracle accepts a
// state seen again and panics as soon as one fingerprint merges what the
// other splits, either way round.
func TestFPOracleHoldsABijection(t *testing.T) {
	panics := func(fn func()) (msg string) {
		defer func() { msg, _ = recover().(string) }()
		fn()
		return ""
	}
	var o fpOracle
	if msg := panics(func() { o.hold(1, 10, "t"); o.hold(2, 20, "t"); o.hold(1, 10, "t") }); msg != "" {
		t.Fatalf("a bijection panicked: %s", msg)
	}
	if msg := panics(func() { o.hold(1, 30, "t") }); !strings.Contains(msg, "merges") {
		t.Errorf("one canonical fingerprint for two reference fingerprints: %q", msg)
	}
	if msg := panics(func() { o.hold(3, 20, "t") }); !strings.Contains(msg, "split") {
		t.Errorf("two canonical fingerprints for one reference fingerprint: %q", msg)
	}
}
