package main

import (
	"testing"

	"multicube/internal/mc"
)

// TestRelabelings pins the table size the fp line prints against the
// presets internal/mc's TestSharedColumnPerms pins the explorer's own
// table on: 3! rows × 2! free columns on a 3×3 grid with one home column
// in use, rows alone where at most one column is free.
func TestRelabelings(t *testing.T) {
	for preset, want := range map[string]int{"litmus-sb-3x3": 12, "litmus-sb-1col": 2, "litmus-sb": 2} {
		sc, err := mc.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		if got := relabelings(sc); got != want {
			t.Errorf("%s: %d relabelings, want %d", preset, got, want)
		}
	}
}
