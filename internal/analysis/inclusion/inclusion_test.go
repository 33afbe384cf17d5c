package inclusion_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multicube/internal/analysis"
	"multicube/internal/analysis/analysistest"
	"multicube/internal/analysis/inclusion"
)

func TestFixture(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "inclfix"), inclusion.Analyzer)
}

// stripPurge removes one exact occurrence of needle from the named repo
// file, returning an overlay; the test fails if the anchor drifted.
func stripPurge(t *testing.T, modRoot, relPath, needle, replacement string) map[string][]byte {
	t.Helper()
	path := filepath.Join(modRoot, filepath.FromSlash(relPath))
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", relPath, err)
	}
	if !bytes.Contains(src, []byte(needle)) {
		t.Fatalf("%s no longer contains %q; update the overlay anchor", relPath, needle)
	}
	mod := bytes.Replace(src, []byte(needle), []byte(replacement), 1)
	return map[string][]byte{path: mod}
}

func runInclusion(t *testing.T, modRoot, pattern string, overlay map[string][]byte) []analysis.Finding {
	t.Helper()
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: modRoot, Overlay: overlay}, pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	findings, _, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{inclusion.Analyzer})
	if err != nil {
		t.Fatalf("running inclusion on %s: %v", pattern, err)
	}
	return findings
}

// TestDetectsStrippedPurgeCoherence is the acceptance proof over real
// code: deleting the upper-view purge after the READ-MOD service path's
// invalidation in internal/coherence — the exact omission that would let
// an L1 retain a line its snooping cache lost, the bug class invariant 6
// only catches on visited states — must produce a finding, while the
// unmodified package stays clean.
func TestDetectsStrippedPurgeCoherence(t *testing.T) {
	modRoot := analysistest.ModuleRoot(t)

	if got := runInclusion(t, modRoot, "./internal/coherence", nil); len(got) != 0 {
		var b strings.Builder
		for _, f := range got {
			b.WriteString(f.String() + "\n")
		}
		t.Fatalf("unmodified internal/coherence should be clean, got %d findings:\n%s", len(got), b.String())
	}

	overlay := stripPurge(t, modRoot, "internal/coherence/handlers.go",
		"\tn.track(op.Line, n.l2.Invalidate(op.Line), Invalid)\n\tn.notifyInvalidate(op.Line)\n\tn.stats.Invalidations++",
		"\tn.track(op.Line, n.l2.Invalidate(op.Line), Invalid)\n\tn.stats.Invalidations++")
	got := runInclusion(t, modRoot, "./internal/coherence", overlay)
	if len(got) == 0 {
		t.Fatal("inclusion pass missed the stripped notifyInvalidate in serveReadModFromModified")
	}
	for _, f := range got {
		pos := f.Pkg.Fset.Position(f.Diag.Pos)
		if filepath.Base(pos.Filename) != "handlers.go" {
			t.Errorf("finding outside handlers.go: %s", f)
		}
		if !strings.Contains(f.Diag.Message, "upper-level purge") {
			t.Errorf("unexpected message: %s", f.Diag.Message)
		}
	}
}

// TestDetectsStrippedFailPendingPurge pins the defect this PR's audit
// actually found and fixed: the SYNC fall-back path dropping the
// reserved copy without purging the upper level.
func TestDetectsStrippedFailPendingPurge(t *testing.T) {
	modRoot := analysistest.ModuleRoot(t)
	overlay := stripPurge(t, modRoot, "internal/coherence/sync.go",
		"n.l2.Drop(op.Line)",
		"n.l2.Drop(op.Line); _ = op")
	// Also remove the purge that follows, restoring the pre-audit shape.
	path := filepath.Join(modRoot, "internal/coherence/sync.go")
	src := overlay[path]
	src = bytes.Replace(src, []byte("n.purgeUpper(op.Line)\n"), []byte("\n"), 1)
	overlay[path] = src

	got := runInclusion(t, modRoot, "./internal/coherence", overlay)
	if len(got) == 0 {
		t.Fatal("inclusion pass missed the pre-audit failPending shape (Drop without purge)")
	}
	found := false
	for _, f := range got {
		pos := f.Pkg.Fset.Position(f.Diag.Pos)
		if filepath.Base(pos.Filename) == "sync.go" && strings.Contains(f.Diag.Message, "Drop") {
			found = true
		}
	}
	if !found {
		t.Errorf("no Drop finding in sync.go; findings: %v", got)
	}
}
