// Package inclusion enforces the multilevel-inclusion discipline of the
// two-level Multicube cache hierarchy (paper Section 3): the processor
// caches above a snooping cache may only hold lines the snooping cache
// holds, so every statement that evicts a snooping-cache line — an
// Invalidate, a Drop, or an Insert that may displace a victim — must be
// followed, in the same function, by a call that reaches a purge of the
// registered upper-level views. This is the static mirror of invariant 6
// in internal/coherence/invariants.go (CheckInvariants), which catches
// the same omission dynamically but only on states a simulation actually
// visits; the pass catches it on every path at vet time.
//
// Scope and registration:
//
//   - Packages opt in with a //multicube:inclusion marker (any file,
//     conventionally the package doc). Unmarked packages — e.g.
//     internal/singlebus, whose machine has no upper level — are
//     skipped entirely.
//   - Evictors are the cross-package cache mutators listed in evictors
//     (cache.Cache.Invalidate, .Drop, .Insert).
//   - A purge target is a same-package function annotated
//     //multicube:inclusion-purge. A call discharges an eviction when
//     the call-graph engine shows it can reach a purge target, so
//     wrappers like notifyInvalidate (which stamps snarf-staleness
//     timestamps before purging) count without their own annotation.
//
// The discharge check is positional, not path-sensitive: a purge-
// reaching call anywhere after the eviction in the same body (nested
// literals excluded — they may never run) satisfies the rule. That keeps
// the pass simple and matches the repository idiom of purging
// immediately after the eviction; a conditional purge on a different
// branch than the eviction would be accepted, which is the pass's
// accepted imprecision.
package inclusion

import (
	"go/ast"
	"go/token"
	"go/types"

	"multicube/internal/analysis"
)

// evictors are the cross-package methods, "pkgpath.Type.Method", whose
// call may remove or displace a line of the snooping cache.
var evictors = []string{
	"multicube/internal/cache.Cache.Invalidate",
	"multicube/internal/cache.Cache.Drop",
	"multicube/internal/cache.Cache.Insert",
}

// Analyzer is the inclusion pass.
var Analyzer = &analysis.Analyzer{
	Name: "inclusion",
	Doc:  "snooping-cache evictions must reach an upper-level purge on a same-function path",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	if !pass.Dirs.PackageMarked("inclusion") {
		return nil, nil
	}
	evicting := make(map[*types.Func]bool)
	for _, entry := range evictors {
		if fn := analysis.ResolveMethod(pass.Pkg, entry); fn != nil {
			evicting[fn] = true
		}
	}
	if len(evicting) == 0 {
		return nil, nil
	}
	graph := analysis.BuildCallGraph(pass)
	purges := purgeUnits(pass, graph)
	for _, u := range graph.Units {
		checkUnit(pass, graph, u, evicting, purges)
	}
	return nil, nil
}

// purgeUnits collects the //multicube:inclusion-purge-annotated units.
func purgeUnits(pass *analysis.Pass, graph *analysis.CallGraph) map[*analysis.CallUnit]bool {
	out := make(map[*analysis.CallUnit]bool)
	for _, u := range graph.Units {
		if u.Decl != nil {
			if _, ok := analysis.FindVerb(analysis.CommentGroupDirectives(u.Decl.Doc), "inclusion-purge"); ok {
				out[u] = true
			}
		} else if pass.Dirs.NodeHas(u.Lit.Pos(), "inclusion-purge") {
			out[u] = true
		}
	}
	return out
}

// evictSite is one registered eviction call awaiting discharge.
type evictSite struct {
	call *ast.CallExpr
	fn   *types.Func
}

// checkUnit flags evictions in one body with no later purge-reaching
// call.
func checkUnit(pass *analysis.Pass, graph *analysis.CallGraph, u *analysis.CallUnit, evicting map[*types.Func]bool, purges map[*analysis.CallUnit]bool) {
	reachesPurge := func(call *ast.CallExpr) bool {
		for _, callee := range graph.CalleesAt(call) {
			if graph.Reaches(callee, func(v *analysis.CallUnit) bool { return purges[v] }) {
				return true
			}
		}
		return false
	}

	var evicts []evictSite
	var dischargePos []token.Pos
	ast.Inspect(u.Body(), func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != u.Lit {
			return false // nested literals are their own units
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && evicting[fn] {
				evicts = append(evicts, evictSite{call: call, fn: fn})
				return true
			}
		}
		if reachesPurge(call) {
			dischargePos = append(dischargePos, call.Pos())
		}
		return true
	})

	for _, ev := range evicts {
		discharged := false
		for _, p := range dischargePos {
			if p > ev.call.Pos() {
				discharged = true
				break
			}
		}
		if !discharged {
			pass.Reportf(ev.call.Pos(),
				"snooping-cache eviction via %s does not reach an upper-level purge on a same-function path (call the //multicube:inclusion-purge helper after it)",
				ev.fn.Name())
		}
	}
}
