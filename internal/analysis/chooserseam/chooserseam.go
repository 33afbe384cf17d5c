// Package chooserseam flags nondeterministic control flow that bypasses
// the chooser seam in packages marked //multicube:deterministic. The
// exploration stack (internal/sim's kernel, internal/mc's explorer) owes
// its soundness to a single rule: every scheduling decision flows through
// sim.Chooser, so the explorer can enumerate and replay it. A bare `go`
// statement or a multi-way `select` introduces runtime-scheduled
// branching the chooser never sees — states the explorer cannot
// reproduce, interleavings it cannot enumerate.
//
// Flagged:
//
//   - go statements (goroutine scheduling is outside the seam)
//   - select statements with more than one communication clause (the
//     runtime picks a ready case pseudo-randomly); single-case selects,
//     with or without default, are deterministic and allowed
//
// Escape hatch: //multicube:chooser-ok <reason> on the statement's line or
// the line above — for concurrency that implements the seam itself. The
// one such site is the coroutine pump in internal/sim.
package chooserseam

import (
	"go/ast"

	"multicube/internal/analysis"
)

// Analyzer is the chooserseam pass.
var Analyzer = &analysis.Analyzer{
	Name: "chooserseam",
	Doc:  "nondeterministic branching must flow through the chooser seam",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !pass.Dirs.PackageMarked("deterministic") {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !pass.Dirs.NodeHas(n.Pos(), "chooser-ok") {
					pass.Reportf(n.Pos(),
						"go statement in a deterministic package bypasses the chooser seam (route the decision through sim.Chooser, or annotate //multicube:chooser-ok with why determinism is preserved)")
				}
			case *ast.SelectStmt:
				clauses := 0
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						clauses++
					}
				}
				if clauses > 1 && !pass.Dirs.NodeHas(n.Pos(), "chooser-ok") {
					pass.Reportf(n.Pos(),
						"multi-case select in a deterministic package: the runtime picks a ready case pseudo-randomly, bypassing the chooser seam (restructure, or annotate //multicube:chooser-ok)")
				}
			}
			return true
		})
	}
	return nil, nil
}
