// Package nolockstep confines concurrency primitives in parallel-runtime
// files to their synchronization points. A file marked
// //multicube:parallel-runtime implements deterministic parallel
// execution (the conservative engine in internal/sim/parallel.go): its
// correctness argument is that all cross-goroutine communication happens
// at a handful of audited rendezvous, each annotated
// //multicube:syncpoint on its function. A goroutine launch, channel
// operation, or sync/atomic call anywhere else in such a file is a new,
// unaudited communication edge — exactly the kind of drive-by "small
// optimization" that silently breaks the ownership-transfer discipline
// the race detector and the differential tests rely on.
//
// Flagged outside //multicube:syncpoint functions:
//
//   - go statements
//   - channel sends, receives, closes, ranges over a channel
//   - select statements
//   - calls into package sync or sync/atomic (both package-level
//     functions and methods on their types, e.g. Mutex.Lock or
//     atomic.Int64.Add)
//
// Declaring channel or sync types is allowed anywhere — only operations
// communicate. Files without the parallel-runtime marker are ignored.
package nolockstep

import (
	"go/ast"
	"go/token"
	"go/types"

	"multicube/internal/analysis"
)

// Analyzer is the nolockstep pass.
var Analyzer = &analysis.Analyzer{
	Name: "nolockstep",
	Doc:  "concurrency primitives in parallel-runtime files stay inside syncpoint functions",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if !fileMarked(f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if isSyncpoint(fd) {
					continue
				}
				check(pass, fd, "function "+fd.Name.Name)
				continue
			}
			check(pass, decl, "package-level code")
		}
	}
	return nil, nil
}

// fileMarked reports whether any comment of f carries the
// parallel-runtime directive (conventionally in the package or file doc
// comment).
func fileMarked(f *ast.File) bool {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := analysis.ParseDirective(c); ok && d.Verb == "parallel-runtime" {
				return true
			}
		}
	}
	return false
}

// isSyncpoint reports whether the function's doc comment carries the
// syncpoint directive.
func isSyncpoint(fd *ast.FuncDecl) bool {
	for _, d := range analysis.CommentGroupDirectives(fd.Doc) {
		if d.Verb == "syncpoint" {
			return true
		}
	}
	return false
}

// check walks one declaration and reports every concurrency primitive.
func check(pass *analysis.Pass, n ast.Node, where string) {
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos,
			"%s outside a syncpoint function (%s, in a parallel-runtime file): every cross-goroutine communication edge must live in an audited //multicube:syncpoint function",
			what, where)
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "go statement")
		case *ast.SendStmt:
			report(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			report(n.Pos(), "select statement")
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					report(n.Pos(), "range over a channel")
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					report(n.Pos(), "channel close")
				}
				return true
			}
			if p := syncPackage(pass, n); p != "" {
				report(n.Pos(), p+" call")
			}
		}
		return true
	})
}

// syncPackage reports "sync" or "sync/atomic" when the call targets one
// of those packages — a package-level function (atomic.AddUint64) or a
// method on one of their types (Mutex.Lock, atomic.Int64.Add) — and ""
// otherwise.
func syncPackage(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			return syncPath(pn.Imported().Path())
		}
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return syncPath(n.Obj().Pkg().Path())
	}
	return ""
}

func syncPath(p string) string {
	if p == "sync" || p == "sync/atomic" {
		return p
	}
	return ""
}
