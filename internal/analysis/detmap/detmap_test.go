package detmap_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multicube/internal/analysis"
	"multicube/internal/analysis/analysistest"
	"multicube/internal/analysis/detmap"
)

func TestFixture(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "detfix"), detmap.Analyzer)
}

// TestSpillFixture pins the statespace idioms: the spill walk's
// collect-then-sort escape, the commutative-accounting annotation, and
// the order-leaking victim scan.
func TestSpillFixture(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "spillfix"), detmap.Analyzer)
}

// TestDetectsUnsortedSpillStatespace proves the pass guards the real
// store: deleting the sort after spillShard's hot-map walk — which would
// write run files in randomized order, breaking their checksummed
// byte-determinism across resumes — must produce a finding, while the
// unmodified package stays clean.
func TestDetectsUnsortedSpillStatespace(t *testing.T) {
	modRoot := analysistest.ModuleRoot(t)
	run := func(overlay map[string][]byte) []analysis.Finding {
		t.Helper()
		pkgs, err := analysis.Load(analysis.LoadConfig{Dir: modRoot, Overlay: overlay}, "./internal/statespace")
		if err != nil {
			t.Fatalf("loading internal/statespace: %v", err)
		}
		findings, _, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{detmap.Analyzer})
		if err != nil {
			t.Fatalf("running detmap: %v", err)
		}
		return findings
	}

	if got := run(nil); len(got) != 0 {
		var b strings.Builder
		for _, f := range got {
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
		t.Fatalf("unmodified internal/statespace should be clean, got %d findings:\n%s", len(got), b.String())
	}

	path := filepath.Join(modRoot, "internal", "statespace", "statespace.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	needle := []byte("\tslices.Sort(keys)\n")
	if !bytes.Contains(src, needle) {
		t.Fatal("statespace.go no longer contains the spill sort; update the overlay anchor")
	}
	// The first occurrence is spillShard's; compact keeps its own,
	// so the slices import stays used.
	overlay := map[string][]byte{path: bytes.Replace(src, needle, nil, 1)}
	got := run(overlay)
	if len(got) == 0 {
		t.Fatal("detmap missed the unsorted hot-map walk in spillShard")
	}
	for _, f := range got {
		if !strings.Contains(f.Diag.Message, "range over map") {
			t.Errorf("unexpected message: %s", f.Diag.Message)
		}
	}
}
