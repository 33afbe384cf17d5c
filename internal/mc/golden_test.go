package mc

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// updateGolden regenerates testdata/preset_golden.json from the code under
// test: go test ./internal/mc -run TestPresetGolden -update with
// MC_LITMUS_EXHAUSTIVE=1 (every preset, about an hour on one core); and
// testdata/checkpoint_values.json with -run TestCheckpointValuesFrozen.
var updateGolden = flag.Bool("update", false, "rewrite the golden tables under testdata")

const goldenPath = "testdata/preset_golden.json"

// goldenSpillBudget forces the spilling entries through the disk tier:
// far below the hot-tier footprint of even the smallest preset pinned
// with a store.
const goldenSpillBudget = 64 << 10

// goldenTier1States and goldenShortStates bound what runs without the
// MC_LITMUS_EXHAUSTIVE gate, by the recorded state count (exploration
// cost grows with it): tier-1 takes every entry up to the first, -short
// (the -race CI job) every entry up to the second.
const (
	goldenTier1States = 8000
	goldenShortStates = 2500
)

// goldenEntry pins what one sequential search of a preset sees. The
// values depend only on the partition the fingerprint induces and on the
// deterministic search order — never on fingerprint values — so the
// table must survive any change of hash function, machine reuse or
// replay strategy untouched.
type goldenEntry struct {
	Preset    string `json:"preset"`
	Spill     bool   `json:"spill,omitempty"`
	States    int    `json:"states"`
	Runs      int    `json:"runs"`
	Exhausted bool   `json:"exhausted"`
	SCVerdict string `json:"sc_verdict,omitempty"`
	Kind      string `json:"violation_kind,omitempty"`
	Choices   []int  `json:"choices,omitempty"`
}

// goldenSpillPresets are additionally pinned with a spilling store.
var goldenSpillPresets = map[string]bool{"litmus-coww-3x3": true, "litmus-corr-3x3": true, "read-race": true}

func goldenExplore(t *testing.T, preset string, spill bool) goldenEntry {
	t.Helper()
	sc, err := Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxStates: 5_000_000}
	if spill {
		opts.StoreDir, opts.MemBudget = t.TempDir(), goldenSpillBudget
	}
	res, err := Explore(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if spill && res.Spills == 0 {
		t.Fatalf("%s: a %d-byte budget produced no spills", preset, goldenSpillBudget)
	}
	g := goldenEntry{Preset: preset, Spill: spill, States: res.States, Runs: res.Runs,
		Exhausted: res.Exhausted, SCVerdict: res.SCVerdict}
	if v := res.Violation; v != nil {
		g.Kind, g.Choices = v.Kind, v.Choices
	}
	return g
}

// TestPresetGolden compares a sequential exploration of every bundled
// preset — in RAM, and a few also with a spilling store — against the
// committed table: states, runs, exhaustion, SC verdict, and the kind
// and minimized choices of any violation.
func TestPresetGolden(t *testing.T) {
	exhaustive := os.Getenv("MC_LITMUS_EXHAUSTIVE") != ""
	if *updateGolden {
		if !exhaustive {
			t.Fatal("-update rewrites every entry: set MC_LITMUS_EXHAUSTIVE=1")
		}
		var table []goldenEntry
		for _, name := range Presets() {
			table = append(table, goldenExplore(t, name, false))
			if goldenSpillPresets[name] {
				table = append(table, goldenExplore(t, name, true))
			}
			t.Logf("%+v", table[len(table)-1])
		}
		data, err := json.MarshalIndent(table, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var table []goldenEntry
	if err := json.Unmarshal(data, &table); err != nil {
		t.Fatal(err)
	}
	pinned := make(map[string]bool)
	for _, want := range table {
		want := want
		pinned[want.Preset] = true
		name := want.Preset
		if want.Spill {
			name += "/spill"
		}
		t.Run(name, func(t *testing.T) {
			switch {
			case exhaustive:
			case want.States > goldenTier1States:
				t.Skipf("%d states; set MC_LITMUS_EXHAUSTIVE=1", want.States)
			case testing.Short() && want.States > goldenShortStates:
				t.Skipf("%d states; run without -short", want.States)
			}
			t.Parallel()
			if got := goldenExplore(t, want.Preset, want.Spill); !reflect.DeepEqual(got, want) {
				t.Fatalf("search changed:\n got  %+v\n want %+v", got, want)
			}
		})
	}
	for _, name := range Presets() {
		if !pinned[name] {
			t.Errorf("preset %s has no golden entry; regenerate with -update", name)
		}
	}
}
