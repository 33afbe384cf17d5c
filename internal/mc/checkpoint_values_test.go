package mc

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"multicube/internal/fphash"
)

const checkpointValuesPath = "testdata/checkpoint_values.json"

// checkpointPresets are the searches whose values are pinned: litmus-mp,
// and read-col-pair, whose runs branch at bus-arbitration choice points.
var checkpointPresets = []string{"litmus-mp", "read-col-pair"}

// checkpointValues is what a checkpoint of one search holds beyond its
// frontier's choice prefixes: the canonical fingerprints in its visited
// runs. Unlike preset_golden.json these are fingerprint values: a change
// of hash or labeling moves them, and that is the change that must bump
// optionsHash's version, because a checkpoint written before would resume
// against values it no longer shares with the search.
type checkpointValues struct {
	Preset    string `json:"preset"`
	States    int    `json:"states"`
	Canonical string `json:"canonical"`
}

type checkpointTable struct {
	OptionsHash string             `json:"options_hash"`
	Presets     []checkpointValues `json:"presets"`
}

// searchValues explores a preset with default options and hashes the
// sorted canonical fingerprints it records.
func searchValues(t *testing.T, preset string) checkpointValues {
	t.Helper()
	sc, err := Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	var states []uint64
	res, err := Explore(sc, Options{onNew: func(fp uint64) { states = append(states, fp) }})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.States != len(states) {
		t.Fatalf("%s: exhausted %v, %d states, %d recorded", preset, res.Exhausted, res.States, len(states))
	}
	return checkpointValues{Preset: preset, States: len(states), Canonical: sortedHash(states)}
}

func sortedHash(fps []uint64) string {
	slices.Sort(fps)
	h := fphash.New()
	for _, fp := range fps {
		h.Word(fp)
	}
	return fmt.Sprintf("%016x", h.Sum())
}

// TestCheckpointValuesFrozen holds the fingerprint values a checkpoint
// stores to the committed table while optionsHash, which pins a
// checkpoint to the explorer that wrote it, keeps its value: a resume
// must find the states it saved under the same names.
func TestCheckpointValuesFrozen(t *testing.T) {
	o := Options{}
	o.fillDefaults()
	got := checkpointTable{OptionsHash: optionsHash(&o)}
	for _, name := range checkpointPresets {
		got.Presets = append(got.Presets, searchValues(t, name))
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(checkpointValuesPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(checkpointValuesPath)
	if err != nil {
		t.Fatal(err)
	}
	var want checkpointTable
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got.OptionsHash != want.OptionsHash {
		t.Fatalf("optionsHash is %s, the table was written under %s: after a deliberate version bump, regenerate with -update",
			got.OptionsHash, want.OptionsHash)
	}
	if !slices.Equal(got.Presets, want.Presets) {
		t.Fatalf("the fingerprints a checkpoint holds changed under the same optionsHash:\n got  %+v\n want %+v\n"+
			"bump optionsHash's version (mcstore.go) so older checkpoints are refused, then regenerate with -update",
			got.Presets, want.Presets)
	}
}
