// Package analysis is a self-contained static-analysis framework for the
// multicube repository: a compatible subset of golang.org/x/tools/go/analysis
// built on the standard library alone (go/parser + go/types, with dependency
// export data served by `go list -export`), so the invariant suite runs in
// hermetic environments without fetching x/tools.
//
// The API mirrors go/analysis deliberately — Analyzer, Pass, Diagnostic
// carry the same shapes and semantics — so the passes in the subpackages
// (genbump, detmap, nowallclock, chooserseam) could be ported to the
// upstream framework by changing only import paths.
//
// The suite mechanically guards two disciplines the simulator's correctness
// rests on:
//
//   - Fingerprint-generation discipline: every mutation of
//     fingerprint-visible state must be covered by a generation-counter
//     bump, or the incremental fingerprint cache
//     (internal/coherence/fpincr) silently merges distinct states.
//   - Explorer determinism: no wall clock, no unseeded randomness, no
//     map-iteration-order dependence, and no nondeterministic branching
//     outside the chooser seam in the deterministic packages.
//
// See the package documentation of each pass for the enforced invariant and
// the directive-comment syntax for registering state and annotating
// intentional exceptions.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and driver flags. It must be
	// a valid Go identifier.
	Name string

	// Doc is the help text: first line a one-sentence summary, the rest the
	// enforced invariant and its escape hatches.
	Doc string

	// Run applies the pass to one package. It reports findings through
	// pass.Report and returns an arbitrary result value (unused by this
	// driver, kept for upstream compatibility).
	Run func(*Pass) (any, error)
}

// Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Dirs is the directive index of the package's files, shared by all
	// passes over the package.
	Dirs *DirectiveIndex

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos // optional
	Message string
}
