package experiments

import (
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

	"multicube/internal/stats"
)

// updateGolden regenerates testdata/paper_tables.csv from the code under
// test: go test ./internal/experiments -run TestPaperTablesGolden -update,
// only after a deliberate change to what is simulated or modelled.
var updateGolden = flag.Bool("update", false, "rewrite testdata/paper_tables.csv")

const goldenPath = "testdata/paper_tables.csv"

// tables builds every experiment's table once, for all the tests that
// read them.
var tables = sync.OnceValue(func() []*stats.Table {
	var ts []*stats.Table
	for _, e := range All() {
		ts = append(ts, e.Table())
	}
	return ts
})

// TestPaperTablesGolden pins every deterministic table of the evaluation —
// Figures 2–4, T-ops, T-scale, T-multi, T-sync and the ablations: what
// `multicube-bench -experiment all -csv` prints — against the committed file, so that a refactor or an
// optimisation shows at once whether it moved a number of the paper's.
func TestPaperTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, tb := range tables() {
		b.WriteString(tb.CSV())
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

// TestProseQuotesTheTables holds every fenced block of EXPERIMENTS.md
// whose first line is the title of one of the tables to that table's
// Render(), trailing whitespace aside, so the prose cannot drift from
// the numbers the golden pins.
func TestProseQuotesTheTables(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rendered := make(map[string]string)
	for _, tb := range tables() {
		rendered[tb.Title] = trimLines(tb.Render())
	}
	var block []string
	fenced, quoted := false, 0
	for n, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "```") && !fenced:
			fenced, block = true, nil
		case strings.HasPrefix(line, "```"):
			fenced = false
			if len(block) == 0 {
				continue
			}
			want, ok := rendered[strings.TrimRight(block[0], " \t")]
			if !ok {
				continue
			}
			quoted++
			if got := trimLines(strings.Join(block, "\n")); got != want {
				t.Errorf("EXPERIMENTS.md block ending at line %d quotes %q, which renders as\n%s\nnot\n%s", n+1, block[0], want, got)
			}
		case fenced:
			block = append(block, line)
		}
	}
	if quoted == 0 {
		t.Fatal("EXPERIMENTS.md quotes none of the tables")
	}
	t.Logf("%d blocks quote a table", quoted)
}

// trimLines drops trailing whitespace from every line and trailing blank
// lines from the text.
func trimLines(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	return strings.TrimRight(strings.Join(lines, "\n"), "\n")
}
