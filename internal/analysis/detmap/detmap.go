// Package detmap flags `for ... range` over a map in packages marked
// //multicube:deterministic. Map iteration order is randomized by the
// runtime, so any observable effect of such a loop — an error message, a
// fingerprint, a candidate ordering — varies run to run, which breaks the
// model checker's reproducibility guarantees (identical seeds and presets
// must yield identical traces and counterexamples).
//
// A loop escapes the check if its body only appends to slice variables
// and one of them is later passed to a sort.*/slices.Sort* call in the
// same function (the collect-then-sort idiom).
package detmap

import (
	"go/ast"
	"go/types"

	"multicube/internal/analysis"
)

// Analyzer is the detmap pass.
var Analyzer = &analysis.Analyzer{
	Name: "detmap",
	Doc:  "no map-iteration-order dependence in deterministic packages",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !pass.Dirs.PackageMarked("deterministic") {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil, nil
}

// checkFunc examines one function body (literals included — sorting in an
// enclosing function cannot restore order observed inside a literal that
// may escape, but in practice literals are small enough that treating the
// whole body as one region keeps the collect-then-sort idiom usable).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var ranges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			if tv, ok := pass.TypesInfo.Types[r.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					ranges = append(ranges, r)
				}
			}
		}
		return true
	})
	for _, r := range ranges {
		if !collectThenSort(pass, body, r) {
			pass.Reportf(r.Pos(),
				"range over map in a deterministic package: iteration order is randomized (sort the keys first)")
		}
	}
}

// collectThenSort reports whether the loop body only appends map entries to
// local slices that are later sorted in the same function.
func collectThenSort(pass *analysis.Pass, body *ast.BlockStmt, r *ast.RangeStmt) bool {
	// Every statement in the loop body must be an append (or other
	// commutative accumulation) into slice variables.
	var collected []types.Object
	ok := true
	for _, s := range r.Body.List {
		as, isAssign := s.(*ast.AssignStmt)
		if !isAssign || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			ok = false
			break
		}
		lhs, isIdent := as.Lhs[0].(*ast.Ident)
		call, isCall := as.Rhs[0].(*ast.CallExpr)
		if !isIdent || !isCall {
			ok = false
			break
		}
		fn, isFnIdent := call.Fun.(*ast.Ident)
		if !isFnIdent || fn.Name != "append" {
			ok = false
			break
		}
		obj := pass.TypesInfo.Uses[lhs]
		if obj == nil {
			ok = false
			break
		}
		collected = append(collected, obj)
	}
	if !ok || len(collected) == 0 {
		return false
	}
	// One of the collected slices must reach a sort call after the loop.
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || call.Pos() < r.End() {
			return true
		}
		sel, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel {
			return true
		}
		pkgID, isPkg := sel.X.(*ast.Ident)
		if !isPkg {
			return true
		}
		if pn, okPkg := pass.TypesInfo.Uses[pkgID].(*types.PkgName); !okPkg ||
			(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			id, isID := arg.(*ast.Ident)
			if !isID {
				continue
			}
			obj := pass.TypesInfo.Uses[id]
			for _, c := range collected {
				if obj == c {
					sorted = true
				}
			}
		}
		return true
	})
	return sorted
}
