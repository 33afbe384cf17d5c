package atomicwrite_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multicube/internal/analysis"
	"multicube/internal/analysis/analysistest"
	"multicube/internal/analysis/atomicwrite"
)

func TestFixture(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "atomfix"), atomicwrite.Analyzer)
}

// rewrite replaces one exact occurrence of needle in the named repo file
// with repl, returning an overlay; the test fails if the anchor drifted.
func rewrite(t *testing.T, modRoot, relPath, needle, repl string) map[string][]byte {
	t.Helper()
	path := filepath.Join(modRoot, filepath.FromSlash(relPath))
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", relPath, err)
	}
	if !bytes.Contains(src, []byte(needle)) {
		t.Fatalf("%s no longer contains %q; update the overlay anchor", relPath, needle)
	}
	mod := bytes.Replace(src, []byte(needle), []byte(repl), 1)
	return map[string][]byte{path: mod}
}

func runAtomicwrite(t *testing.T, modRoot, pattern string, overlay map[string][]byte) []analysis.Finding {
	t.Helper()
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: modRoot, Overlay: overlay}, pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	findings, _, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{atomicwrite.Analyzer})
	if err != nil {
		t.Fatalf("running atomicwrite on %s: %v", pattern, err)
	}
	return findings
}

func assertClean(t *testing.T, modRoot, pattern string) {
	t.Helper()
	if got := runAtomicwrite(t, modRoot, pattern, nil); len(got) != 0 {
		var b strings.Builder
		for _, f := range got {
			b.WriteString(f.String() + "\n")
		}
		t.Fatalf("unmodified %s should be clean, got %d findings:\n%s", pattern, len(got), b.String())
	}
}

// assertSyncFinding requires a missing-Sync finding in file and nothing
// else new; the overlay restores the exact pre-audit shape of a writer.
func assertSyncFinding(t *testing.T, findings []analysis.Finding, file string) {
	t.Helper()
	if len(findings) == 0 {
		t.Fatalf("atomicwrite pass missed the stripped Sync in %s", file)
	}
	for _, f := range findings {
		pos := f.Pkg.Fset.Position(f.Diag.Pos)
		if filepath.Base(pos.Filename) != file {
			t.Errorf("finding outside %s: %s", file, f)
		}
		if !strings.Contains(f.Diag.Message, "without a tmp.Sync()") {
			t.Errorf("unexpected message: %s", f.Diag.Message)
		}
	}
}

// TestDetectsStrippedSyncCheckpoint is the acceptance proof over real
// code: the checkpoint writers in internal/statespace publish through
// durable.WriteFile, and deleting that writer's Sync — the pre-audit
// shape, where a crash after the rename could leave a torn manifest that
// a resume then trusts — must produce a finding, while the fixed packages
// stay clean.
func TestDetectsStrippedSyncCheckpoint(t *testing.T) {
	modRoot := analysistest.ModuleRoot(t)
	assertClean(t, modRoot, "./internal/statespace")
	assertClean(t, modRoot, "./internal/durable")

	overlay := rewrite(t, modRoot, "internal/durable/durable.go",
		"\tif err == nil {\n\t\terr = tmp.Sync()\n\t}\n", "")
	assertSyncFinding(t, runAtomicwrite(t, modRoot, "./internal/durable", overlay), "durable.go")
}

// TestDetectsStrippedSyncFarmCache proves the helper cannot be bypassed
// quietly: putting the farm result cache's Put back on a hand-rolled
// temp+rename without the Sync must produce the finding in cache.go.
func TestDetectsStrippedSyncFarmCache(t *testing.T) {
	modRoot := analysistest.ModuleRoot(t)
	assertClean(t, modRoot, "./internal/farm")

	overlay := rewrite(t, modRoot, "internal/farm/cache.go",
		"\tif err := durable.WriteFile(path, data); err != nil {\n\t\treturn fmt.Errorf(\"farm: cache put: %w\", err)\n\t}\n",
		"\t_ = durable.WriteFile\n\ttmp, err := os.CreateTemp(filepath.Dir(path), fp+\".tmp*\")\n\tif err != nil {\n\t\treturn err\n\t}\n"+
			"\ttmp.Write(data)\n\ttmp.Close()\n\tif err := os.Rename(tmp.Name(), path); err != nil {\n\t\treturn err\n\t}\n")
	assertSyncFinding(t, runAtomicwrite(t, modRoot, "./internal/farm", overlay), "cache.go")
}
