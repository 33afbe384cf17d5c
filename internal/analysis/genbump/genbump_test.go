package genbump_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"multicube/internal/analysis"
	"multicube/internal/analysis/analysistest"
	"multicube/internal/analysis/genbump"
)

func TestFixture(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "genfix"), genbump.Analyzer)
}

// TestStoreFixture pins the statespace idioms — a map-typed fpfield
// guarded by a per-shard counter, builtin mutations, and the exempted
// retire helper.
func TestStoreFixture(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "storefix"), genbump.Analyzer)
}

// stripBump removes one exact occurrence of needle from the named repo
// file and returns an overlay mapping for it; the test fails if the
// needle is not present (the anchor drifted).
func stripBump(t *testing.T, modRoot, relPath, needle, replacement string) map[string][]byte {
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

// runGenbump loads one repo package (optionally with an overlay) and
// returns genbump's findings.
func runGenbump(t *testing.T, modRoot, pattern string, overlay map[string][]byte) []analysis.Finding {
	t.Helper()
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: modRoot, Overlay: overlay}, pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	findings, _, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{genbump.Analyzer})
	if err != nil {
		t.Fatalf("running genbump on %s: %v", pattern, err)
	}
	return findings
}

// TestDetectsStrippedBumpCoherence is the acceptance proof for the pass,
// against the cache that carries the multi-million-state runs: deleting
// the generation bump at the top of a grid processor entry point — the
// exact omission that would silently corrupt the incremental fingerprint
// cache — must produce diagnostics, while the unmodified package stays
// clean. TestAndSet both writes the lock word itself (rule A) and reaches
// beginPending's exempted writes (rule B), so one strip proves both.
func TestDetectsStrippedBumpCoherence(t *testing.T) {
	modRoot := analysistest.ModuleRoot(t)

	if got := runGenbump(t, modRoot, "./internal/coherence", nil); len(got) != 0 {
		t.Fatalf("unmodified internal/coherence should be clean, got %d findings:\n%s", len(got), render(got))
	}

	overlay := stripBump(t, modRoot, "internal/coherence/node.go",
		"func (n *Node) TestAndSet(line cache.Line, done func(Result)) {\n\tn.gen++\n",
		"func (n *Node) TestAndSet(line cache.Line, done func(Result)) {\n")
	got := runGenbump(t, modRoot, "./internal/coherence", overlay)
	var ruleA, ruleB bool
	for _, f := range got {
		pos := f.Pkg.Fset.Position(f.Diag.Pos)
		if filepath.Base(pos.Filename) != "node.go" {
			t.Errorf("finding outside node.go: %s", f)
		}
		switch {
		case strings.Contains(f.Diag.Message, "without a generation bump"):
			ruleA = true
		case strings.Contains(f.Diag.Message, "exported TestAndSet reaches fingerprint-visible writes"):
			ruleB = true
		default:
			t.Errorf("unexpected message: %s", f.Diag.Message)
		}
	}
	if !ruleA || !ruleB {
		t.Fatalf("stripped n.gen++ in (*Node).TestAndSet: rule A fired %v, rule B fired %v:\n%s", ruleA, ruleB, render(got))
	}
}

// TestDetectsStrippedBumpBus does the same against the bus package:
// Request mutates the fingerprint-visible arbitration queue, so its
// bump must not be removable without the suite noticing.
func TestDetectsStrippedBumpBus(t *testing.T) {
	modRoot := analysistest.ModuleRoot(t)

	if got := runGenbump(t, modRoot, "./internal/bus", nil); len(got) != 0 {
		t.Fatalf("unmodified internal/bus should be clean, got %d findings:\n%s", len(got), render(got))
	}

	overlay := stripBump(t, modRoot, "internal/bus/bus.go", "\tb.gen++\n\tb.queue = append(", "\tb.queue = append(")
	got := runGenbump(t, modRoot, "./internal/bus", overlay)
	if len(got) == 0 {
		t.Fatal("genbump missed the stripped b.gen++ in (*Bus).Request")
	}
	for _, f := range got {
		if !strings.Contains(f.Diag.Message, "fingerprint-visible") {
			t.Errorf("unexpected message: %s", f.Diag.Message)
		}
	}
}

// TestDetectsStrippedBumpStatespace guards the visited store: the
// hot-tier retirement in (*Store).spillShard must not lose its bump, or
// the checkpoint dirtiness test (gen vs spilledGen) treats a spilled
// shard as covering later mutations and writes an incomplete checkpoint.
// spillShard's bump is the only one in its body, so stripping it cannot
// be masked by another bump in the same function.
func TestDetectsStrippedBumpStatespace(t *testing.T) {
	modRoot := analysistest.ModuleRoot(t)

	if got := runGenbump(t, modRoot, "./internal/statespace", nil); len(got) != 0 {
		t.Fatalf("unmodified internal/statespace should be clean, got %d findings:\n%s", len(got), render(got))
	}

	overlay := stripBump(t, modRoot, "internal/statespace/statespace.go",
		"\tsh.runs = append(sh.runs, r)\n\tsh.gen++\n\tsh.hot = make(map[uint64][]uint64)\n",
		"\tsh.runs = append(sh.runs, r)\n\tsh.hot = make(map[uint64][]uint64)\n")
	got := runGenbump(t, modRoot, "./internal/statespace", overlay)
	if len(got) == 0 {
		t.Fatal("genbump missed the stripped sh.gen++ in (*Store).spillShard")
	}
	for _, f := range got {
		pos := f.Pkg.Fset.Position(f.Diag.Pos)
		if filepath.Base(pos.Filename) != "statespace.go" {
			t.Errorf("finding outside statespace.go: %s", f)
		}
		if !strings.Contains(f.Diag.Message, "without a generation bump") {
			t.Errorf("unexpected message: %s", f.Diag.Message)
		}
	}
}

// TestIfaceGapClosed is the closed-gap regression test for the carried
// follow-up: the interface-dispatched call to an exempted mutator is now
// charged with the bump obligation exactly like its statically-
// dispatched twin. Exactly two rule-B findings — DirectCaller and
// IfaceCaller — and none on BumpedIfaceCaller, which discharges the
// obligation. If the engine regresses to static-only resolution, the
// count drops to 1 and this test fails.
func TestIfaceGapClosed(t *testing.T) {
	findings := analysistest.Run(t, filepath.Join("testdata", "ifacegap"), genbump.Analyzer)
	if len(findings) != 2 {
		t.Fatalf("ifacegap fixture produced %d findings, want exactly 2 (static + interface dispatch):\n%s",
			len(findings), render(findings))
	}
	var names []string
	for _, f := range findings {
		names = append(names, f.Diag.Message)
	}
	joined := strings.Join(names, "\n")
	for _, fn := range []string{"DirectCaller", "IfaceCaller"} {
		if !strings.Contains(joined, fn) {
			t.Errorf("no rule-B finding on %s:\n%s", fn, joined)
		}
	}
	if strings.Contains(joined, "BumpedIfaceCaller") {
		t.Errorf("BumpedIfaceCaller discharged its obligation but was flagged:\n%s", joined)
	}
}

// TestClosureGapClosed pins the stored-closure half: the func-valued
// struct field's bound literal charges its obligation to every caller of
// the field.
func TestClosureGapClosed(t *testing.T) {
	findings := analysistest.Run(t, filepath.Join("testdata", "closuregap"), genbump.Analyzer)
	if len(findings) != 1 {
		t.Fatalf("closuregap fixture produced %d findings, want exactly 1 (ClosureCaller):\n%s",
			len(findings), render(findings))
	}
	if !strings.Contains(findings[0].Diag.Message, "ClosureCaller") {
		t.Errorf("the finding should be ClosureCaller's, got: %s", findings[0].Diag.Message)
	}
}

func render(fs []analysis.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestLoadFixture pins the rewind seam's entries in the substrate-mutator
// table: the repository's own DefaultConfig.Mutators, applied to a fixture
// package, flags a caller that loads a saved cache, table or memory
// without touching the owner's generation, and passes one that restores
// the generation in the same function.
func TestLoadFixture(t *testing.T) {
	cfg := genbump.Config{Packages: []string{"loadfix"}, Mutators: genbump.DefaultConfig.Mutators}
	analysistest.Run(t, filepath.Join("testdata", "loadfix"), genbump.New(cfg))
}
