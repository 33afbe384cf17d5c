// Package atomicwrite enforces the durability protocol the checkpoint
// and farm stores rely on: a durable file becomes visible only through
// the temp+sync+rename shape (CreateTemp in the destination directory,
// write, Sync, Close, Rename), and durable files are deleted only under
// the manifest-pin discipline. A crash-window violation of exactly this
// protocol slipped past PR 9's review and was only caught by a CI kill
// loop; this pass catches the whole class at vet time.
//
// Scope and rules, in packages marked //multicube:durable (any file):
//
//   - os.Create / os.WriteFile of a non-temp path is flagged: the write
//     lands in place, so a crash mid-write leaves a torn durable file.
//     A path is temp when its source text mentions ".tmp" (the
//     repository's temp-suffix convention) — in-place writes of scratch
//     files are the caller's business.
//
//   - os.Rename whose source is the Name() of an os.CreateTemp file
//     requires a Sync() of that file positioned before the rename in
//     the same function: rename is atomic, but without the fsync the
//     data may still be dirty page cache when the new name appears, and
//     a crash yields a complete-looking, empty-or-torn file. A rename
//     from any other source is flagged too: the pass cannot see its
//     durability.
//
//   - os.Remove / os.RemoveAll of a non-temp path is flagged: durable
//     deletes must stay behind the manifest-pin discipline (only
//     generations the manifest no longer references may go). Removing a
//     tracked temp file (error-path cleanup of tmp.Name()) is always
//     allowed.
//
// Deliberate exceptions — the manifest-pinned GC sweeps, retirement of
// superseded runs, eviction of cache entries whose loss only costs
// recomputation, the unsynced rename of a statespace run (a checkpoint
// fsyncs it before a manifest names it) — are annotated as such, with a
// //multicube:atomicwrite-ok <reason> on or above the statement, or on
// the enclosing function's doc comment.
// The check is same-function: a Sync performed by a helper on a passed
// *os.File is invisible, which is the pass's accepted soundness
// boundary (the repository idiom keeps the whole shape in one writer).
package atomicwrite

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"multicube/internal/analysis"
)

// Analyzer is the pass; it needs no per-repository configuration beyond
// the //multicube:durable package marker.
var Analyzer = &analysis.Analyzer{
	Name: "atomicwrite",
	Doc:  "durable files must be written temp+sync+rename and deleted only under the manifest-pin discipline",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !pass.Dirs.PackageMarked("durable") {
		return nil, nil
	}
	graph := analysis.BuildCallGraph(pass)
	for _, u := range graph.Units {
		checkUnit(pass, u)
	}
	return nil, nil
}

// osFunc resolves a call to package os, returning the function name.
func osFunc(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return ""
	}
	return fn.Name()
}

// fileMethod matches a `<v>.<name>()` call on a tracked temp file,
// returning the receiver object.
func fileMethod(pass *analysis.Pass, call *ast.CallExpr, name string, temps map[types.Object]bool) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || !temps[obj] {
		return nil
	}
	return obj
}

// tempish reports whether a path expression follows the repository's
// temp-suffix convention.
func tempish(expr ast.Expr) bool {
	return strings.Contains(types.ExprString(expr), ".tmp")
}

func checkUnit(pass *analysis.Pass, u *analysis.CallUnit) {
	if funcAnnotated(pass, u) {
		return
	}

	// Walk 1: track os.CreateTemp files and their Sync positions.
	temps := make(map[types.Object]bool)
	syncPos := make(map[types.Object][]token.Pos)
	walk(pass, u, func(call *ast.CallExpr, _ ast.Stmt) {
		if obj := fileMethod(pass, call, "Sync", temps); obj != nil {
			syncPos[obj] = append(syncPos[obj], call.Pos())
		}
	}, func(assign *ast.AssignStmt) {
		if len(assign.Rhs) != 1 {
			return
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok || osFunc(pass, call) != "CreateTemp" || len(assign.Lhs) == 0 {
			return
		}
		if id, ok := assign.Lhs[0].(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				temps[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				temps[obj] = true
			}
		}
	})

	// Walk 2: classify the durable-file operations.
	walk(pass, u, func(call *ast.CallExpr, stmt ast.Stmt) {
		name := osFunc(pass, call)
		if name == "" || len(call.Args) == 0 || annotated(pass, call, stmt) {
			return
		}
		switch name {
		case "Create", "WriteFile":
			if tempish(call.Args[0]) {
				return
			}
			pass.Reportf(call.Pos(),
				"durable file written in place via os.%s (crash leaves a torn file); write a .tmp sibling, Sync, then Rename — or annotate //multicube:atomicwrite-ok with a reason",
				name)
		case "Rename":
			if len(call.Args) < 2 {
				return
			}
			src := call.Args[0]
			if obj := nameOf(pass, src, temps); obj != nil {
				if syncedBefore(syncPos[obj], call.Pos()) {
					return
				}
				pass.Reportf(call.Pos(),
					"os.Rename publishes %s without a %s.Sync() before it (crash can expose an empty or torn durable file)",
					types.ExprString(src), obj.Name())
				return
			}
			if tempish(src) {
				return
			}
			pass.Reportf(call.Pos(),
				"os.Rename source %s is not a synced temp file from this function; route durable writes through CreateTemp+Sync+Rename, or annotate //multicube:atomicwrite-ok with a reason",
				types.ExprString(src))
		case "Remove", "RemoveAll":
			if nameOf(pass, call.Args[0], temps) != nil || tempish(call.Args[0]) {
				return // error-path cleanup of a tracked temp file
			}
			pass.Reportf(call.Pos(),
				"durable file deleted via os.%s outside the manifest-pin discipline; annotate //multicube:atomicwrite-ok with the retention rule that makes this safe",
				name)
		}
	}, nil)
}

// walk traverses the unit body (nested literals excluded), reporting
// calls with their enclosing statement and, optionally, assignments.
func walk(pass *analysis.Pass, u *analysis.CallUnit, onCall func(*ast.CallExpr, ast.Stmt), onAssign func(*ast.AssignStmt)) {
	var stack []ast.Node
	ast.Inspect(u.Body(), func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit != u.Lit {
			return false
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			onCall(n, enclosingStmt(stack))
		case *ast.AssignStmt:
			if onAssign != nil {
				onAssign(n)
			}
		}
		return true
	})
}

// enclosingStmt returns the innermost block-level statement containing
// the call — for a call in an if/for init clause the whole if/for, the
// statement a directive comment sits above.
func enclosingStmt(stack []ast.Node) ast.Stmt {
	for i := len(stack) - 1; i > 0; i-- {
		s, ok := stack[i].(ast.Stmt)
		if !ok {
			continue
		}
		switch stack[i-1].(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
			return s
		}
	}
	return nil
}

// nameOf matches `<v>.Name()` for a tracked temp file v.
func nameOf(pass *analysis.Pass, expr ast.Expr, temps map[types.Object]bool) types.Object {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return nil
	}
	return fileMethod(pass, call, "Name", temps)
}

func syncedBefore(positions []token.Pos, renamePos token.Pos) bool {
	for _, p := range positions {
		if p < renamePos {
			return true
		}
	}
	return false
}

// annotated reports a statement-level atomicwrite-ok escape hatch.
func annotated(pass *analysis.Pass, call *ast.CallExpr, stmt ast.Stmt) bool {
	if pass.Dirs.NodeHas(call.Pos(), "atomicwrite-ok") {
		return true
	}
	return stmt != nil && pass.Dirs.NodeHas(stmt.Pos(), "atomicwrite-ok")
}

// funcAnnotated reports a function-level atomicwrite-ok escape hatch.
func funcAnnotated(pass *analysis.Pass, u *analysis.CallUnit) bool {
	if u.Decl != nil {
		_, ok := analysis.FindVerb(analysis.CommentGroupDirectives(u.Decl.Doc), "atomicwrite-ok")
		return ok
	}
	return pass.Dirs.NodeHas(u.Lit.Pos(), "atomicwrite-ok")
}
