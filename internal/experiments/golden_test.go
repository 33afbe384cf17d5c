package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// updateGolden regenerates testdata/paper_tables.csv from the code under
// test: go test ./internal/experiments -run TestPaperTablesGolden -update,
// only after a deliberate change to what is simulated or modelled.
var updateGolden = flag.Bool("update", false, "rewrite testdata/paper_tables.csv")

const goldenPath = "testdata/paper_tables.csv"

// TestPaperTablesGolden pins every deterministic table of the evaluation —
// Figures 2–4, T-ops, T-scale, T-multi, T-sync and the ablations: what
// `multicube-bench -experiment all -csv` prints — against the committed file, so that a refactor or an
// optimisation shows at once whether it moved a number of the paper's.
func TestPaperTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range All() {
		b.WriteString(e.Table().CSV())
		b.WriteString("\n")
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d of %s:\n got  %q\n want %q\n(-update rewrites it, after a deliberate change)", i+1, goldenPath, g, w)
		}
	}
}
