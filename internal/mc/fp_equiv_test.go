package mc

import (
	"fmt"
	"testing"
)

// fpEquivOpts bounds the equivalence explorations: big enough to cover
// the interesting presets exhaustively, small enough to keep the A/B
// matrix fast.
func fpEquivOpts() Options {
	return Options{MaxStates: 60000, NoMinimize: true}
}

// TestFPCrossCheckPresets runs every curated preset with the debug
// cross-check enabled: at every choice point the incremental canonical
// fingerprint is recomputed from scratch and held in bijection with the
// full-walk reference, and any divergence panics. The reference walks the
// machine once per relabeling, twelve times a point on a 3×3 grid, so the
// budget is half what it was when only the recompute ran.
func TestFPCrossCheckPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-check matrix is slow")
	}
	for _, name := range Presets() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := fpEquivOpts()
			opts.CheckFP = true
			opts.MaxStates = 4000
			if _, err := Explore(sc, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFPCrossCheckSwarm cross-checks the incremental fingerprint on
// seeded random grid scenarios, including injected-bug runs where
// violations are in play. (The single-bus baseline has one fingerprint
// path and nothing to cross-check.)
func TestFPCrossCheckSwarm(t *testing.T) {
	cases := 12
	if testing.Short() {
		cases = 4
	}
	for i := 0; i < cases; i++ {
		seed := int64(17000 + i)
		sc := SwarmScenario(seed, false)
		sc.Name = fmt.Sprintf("%s-checkfp", sc.Name)
		opts := fpEquivOpts()
		opts.CheckFP = true
		opts.MaxStates = 6000
		if _, err := Explore(sc, opts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// sbLegacyPartition is the {States, Runs} both fingerprint paths of the
// single-bus baseline agreed on when the incremental one was deleted. The
// baseline has one path now, so there is nothing to run it against; the
// counts keep holding the full walk to the partition the pair induced.
var sbLegacyPartition = map[string][2]int{
	"sb-writeonce-race": {77, 36}, "sb-victim-race": {40, 16},
	"swarm-18000": {25, 13}, "swarm-18001": {26, 13}, "swarm-18002": {58, 22}, "swarm-18003": {73, 46},
	"swarm-18004": {63, 37}, "swarm-18005": {36, 19}, "swarm-18006": {51, 25}, "swarm-18007": {117, 63},
}

// TestFPIncrementalMatchesLegacyPartition asserts the grid's incremental
// component-hashed fingerprint induces exactly the same state partition
// as the full-walk reference fingerprint: the hash values differ, but the
// search depends only on fingerprint equality. CheckFP holds the two in
// bijection over every state the search visits, which is the whole claim:
// a search on the reference would visit the same states in the same runs
// and reach the same verdict and counterexample. Single-bus cases compare
// against sbLegacyPartition instead.
func TestFPIncrementalMatchesLegacyPartition(t *testing.T) {
	type tc struct {
		name   string
		sc     Scenario
		states int // budget, where the reference's twelve full walks a point need one; 0 is fpEquivOpts'
	}
	var cases []tc
	for _, name := range []string{"read-race", "readmod-race", "sb-writeonce-race", "sb-victim-race"} {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{name: name, sc: sc})
	}
	// 3×3 grids, where sorting has twelve relabelings to choose from: free
	// columns and two distinct programs (one sorting relabeling at every
	// point), identical programs (rows tie: 2.1 a point), and snarfing
	// (the eligibility matrix rides along with whichever are combined).
	for _, c := range []tc{{name: "litmus-coww-3x3"}, {name: "sync-col-3x3", states: 5000}, {name: "snarf-row-3x3", states: 5000}} {
		sc, err := Preset(c.name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{c.name, sc, c.states})
	}
	// Injected-bug variant: the bijection must hold on the way to the
	// violation and through its minimization.
	inj, err := Preset("readmod-race")
	if err != nil {
		t.Fatal(err)
	}
	inj.InjectStaleReply = true
	cases = append(cases, tc{name: "readmod-race-inject", sc: inj})
	// Snarf variant exercises the row-coupled purgedAt matrix, the one
	// fingerprint component that cannot be factored per row.
	snarf, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	snarf.Name = "read-race-snarf"
	snarf.Snarf = true
	cases = append(cases, tc{name: "read-race-snarf", sc: snarf})
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for i := 0; i < seeds; i++ {
		for _, singleBus := range []bool{false, true} {
			sc := SwarmScenario(int64(18000+i), singleBus)
			cases = append(cases, tc{name: sc.Name + fmt.Sprintf("-sb%v", singleBus), sc: sc})
		}
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			opts := fpEquivOpts()
			opts.NoMinimize, opts.CheckFP = false, !c.sc.SingleBus
			if c.states > 0 {
				opts.MaxStates = c.states
			}
			res, err := Explore(c.sc, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.sc.SingleBus {
				want := sbLegacyPartition[c.sc.Name]
				if res.States != want[0] || res.Runs != want[1] || !res.Exhausted || res.Violation != nil {
					t.Fatalf("partition changed: states=%d runs=%d exhausted=%v violation=%v, want states=%d runs=%d exhausted, none",
						res.States, res.Runs, res.Exhausted, res.Violation, want[0], want[1])
				}
				return
			}
			if res.States > 0 && res.FPRecomputes == 0 {
				t.Fatalf("incremental path reported no component recomputes over %d states", res.States)
			}
			if res.FPPoints == 0 || res.FPCombines < res.FPPoints {
				t.Fatalf("canonical-form counters: %d combines over %d points", res.FPCombines, res.FPPoints)
			}
			if (c.name == "readmod-race-inject") != (res.Violation != nil) {
				t.Fatalf("violation %v", res.Violation)
			}
		})
	}
}

// FuzzFPEquivalence drives the cross-check from fuzzed seeds: each case
// derives a random grid scenario and explores it with the from-scratch
// comparison armed at every choice point.
func FuzzFPEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 9000, 17003, 424242, 7, 1988, 65537, 31337} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := SwarmScenario(seed, false)
		opts := Options{MaxStates: 1500, NoMinimize: true, CheckFP: true}
		if _, err := Explore(sc, opts); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
