// Package genbump enforces the fingerprint-generation discipline that the
// incremental fingerprint cache (internal/coherence/fpincr) depends on:
// every mutation of fingerprint-visible state must be covered by a bump
// of the owning struct's generation counter, or the model checker
// silently merges distinct states — the exact bug class PR 3's 3× speedup
// made possible.
//
// State is registered two ways:
//
//   - Same-package struct fields annotated //multicube:gencounter (the
//     counter itself) and //multicube:fpfield [guard=Type] (a guarded
//     field; guard=Type redirects the obligation to another struct's
//     counter, e.g. pending's fields are guarded by Node.gen).
//   - The cross-package allowlist table in this package (DefaultConfig):
//     fingerprint-visible fields of substrate types (cache.Entry.State,
//     …) and mutator methods of substrate stores (cache.Cache.Insert,
//     memory.Store.Write, …) whose *callers* own the generation counters.
//
// Two rules are enforced:
//
//	Rule A (same function): a function that writes a registered field —
//	assignment, ++/--, op=, element store, delete, clear, copy-into — or
//	calls a registered mutator method on a counter-carrying struct's
//	field, must also bump the guarding generation counter in that same
//	function. Helpers that deliberately rely on their callers' bumps are
//	annotated //multicube:fpexempt <reason> (doc comment, or the line
//	before a func literal); the bump obligation then propagates to the
//	callers.
//
//	Rule B (exported mutators): an exported function or method that
//	transitively reaches an exempted unbumped write without bumping
//	along the way is flagged. Propagation runs over the shared
//	analysis.CallGraph engine, so beyond static same-package calls it
//	follows interface dispatch (charging every same-package
//	implementation of the method set) and stored func values (closures
//	and func-valued struct fields charge their assigned literals). This
//	catches new entry points that forget the discipline even when every
//	helper they use is individually annotated.
//
// Known limits, accepted deliberately: writes through aliases (a slice
// returned by an accessor, a retained *Entry) and the call-graph engine's
// soundness boundary — implementations in other packages, func values
// passed as parameters or returned, reflection — are invisible to the
// pass. The protocol entry points (snoop dispatchers, processor-side
// APIs) bump unconditionally, which is what makes the per-function
// convention — and hence this mechanical check — sound in practice. The
// formerly-open interface-dispatch gap is pinned closed by executable
// fixtures: testdata/ifacegap flags the interface-dispatched caller next
// to its statically-dispatched twin, testdata/closuregap does the same
// for a closure stored in a struct field, and TestIfaceGapClosed /
// TestClosureGapClosed fail if either blind spot ever reopens.
package genbump

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"multicube/internal/analysis"
)

// Config lists the cross-package registration table and the packages it
// applies to.
type Config struct {
	// Packages whose sources are checked against the allowlist entries
	// below. Directive-registered fields are checked in every package.
	Packages []string

	// Fields are fingerprint-visible struct fields outside the analyzed
	// package, "pkgpath.Type.Field". Writes are satisfied by a bump of
	// any generation counter in the writing function (guard=any).
	Fields []string

	// Mutators are methods, "pkgpath.Type.Method", whose call mutates
	// fingerprint-visible state of the receiver. A call through a field
	// selector (x.store.Write(...)) obliges a bump of the field's owning
	// struct when that struct carries a generation counter.
	Mutators []string
}

// DefaultConfig is the repository's registration table.
var DefaultConfig = Config{
	Packages: []string{
		"multicube/internal/coherence",
		"multicube/internal/bus",
	},
	Fields: []string{
		"multicube/internal/cache.Entry.State",
		"multicube/internal/cache.Entry.Data",
		"multicube/internal/cache.Entry.Pinned",
	},
	Mutators: []string{
		"multicube/internal/cache.Cache.Insert",
		"multicube/internal/cache.Cache.Invalidate",
		"multicube/internal/cache.Cache.Drop",
		"multicube/internal/cache.Cache.Load",
		"multicube/internal/mlt.Table.Insert",
		"multicube/internal/mlt.Table.Remove",
		"multicube/internal/mlt.Table.Load",
		"multicube/internal/memory.Store.Write",
		"multicube/internal/memory.Store.Invalidate",
		"multicube/internal/memory.Store.Load",
	},
}

// Analyzer is the pass with the repository's default configuration.
var Analyzer = New(DefaultConfig)

// New builds a genbump analyzer for the given registration table.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "genbump",
		Doc:  "writes to fingerprint-visible state must bump the owning generation counter",
		Run:  func(pass *analysis.Pass) (any, error) { return run(pass, cfg) },
	}
}

// collector holds the per-package registration state.
type collector struct {
	pass *analysis.Pass
	cfg  Config

	// counters maps a struct type to its generation-counter field name.
	counters map[*types.TypeName]string
	// counterVars marks the counter field objects themselves (bump
	// targets).
	counterVars map[types.Object]*types.TypeName
	// fpVars maps registered field objects to their guarding struct type;
	// nil means guard=any.
	fpVars map[types.Object]*types.TypeName
	// fpNames renders registered fields as "Type.Field" for diagnostics.
	fpNames map[types.Object]string
	// mutators marks registered mutator methods (resolved from imports).
	mutators map[types.Object]bool
	// allowlisted gates the allowlist entries to configured packages.
	allowlisted bool

	// graph is the shared call-graph engine; unitOf maps its units to
	// this pass's per-body state for Rule B propagation.
	graph  *analysis.CallGraph
	units  []*funcUnit
	unitOf map[*analysis.CallUnit]*funcUnit
}

// funcUnit is one analyzed body: a declared function/method or a func
// literal (the call-graph unit carries the body and identity).
type funcUnit struct {
	cu *analysis.CallUnit

	exempt bool
	bumps  map[*types.TypeName]bool
	writes []writeRec

	obligations map[*types.TypeName]bool // memo for Rule B; anyGuard key for guard=any
	visiting    bool
}

// anyGuard is the sentinel obligation key for guard=any registrations.
var anyGuard = types.NewTypeName(token.NoPos, nil, "<any>", nil)

// writeRec is one registered-state mutation found in a unit.
type writeRec struct {
	pos   token.Pos
	desc  string
	guard *types.TypeName // nil => any counter satisfies
}

func run(pass *analysis.Pass, cfg Config) (any, error) {
	c := &collector{
		pass:        pass,
		cfg:         cfg,
		counters:    make(map[*types.TypeName]string),
		counterVars: make(map[types.Object]*types.TypeName),
		fpVars:      make(map[types.Object]*types.TypeName),
		fpNames:     make(map[types.Object]string),
		mutators:    make(map[types.Object]bool),
		unitOf:      make(map[*analysis.CallUnit]*funcUnit),
	}
	for _, p := range cfg.Packages {
		if pass.Pkg.Path() == p {
			c.allowlisted = true
		}
	}
	c.registerDirectives()
	if c.allowlisted {
		c.registerAllowlist()
	}
	if len(c.counters) == 0 && len(c.fpVars) == 0 && len(c.mutators) == 0 {
		return nil, nil // nothing registered: not a fingerprinted package
	}
	// The engine discovers every body — declared functions AND literals,
	// including literals in package-level var declarations that the old
	// decl walk never reached — and resolves interface-dispatched and
	// stored-func-value calls into the edges Rule B propagates over.
	c.graph = analysis.BuildCallGraph(pass)
	for _, cu := range c.graph.Units {
		c.collectUnit(cu)
	}
	c.ruleA()
	c.ruleB()
	return nil, nil
}

// registerDirectives walks struct declarations for gencounter/fpfield
// annotations.
func (c *collector) registerDirectives() {
	type deferredGuard struct {
		obj   types.Object
		guard string
		pos   token.Pos
	}
	var deferred []deferredGuard
	byName := make(map[string]*types.TypeName)

	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			tn, ok := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			byName[tn.Name()] = tn
			for _, field := range st.Fields.List {
				ds := analysis.CommentGroupDirectives(field.Doc, field.Comment)
				for _, name := range field.Names {
					obj := c.pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					if _, ok := analysis.FindVerb(ds, "gencounter"); ok {
						c.counters[tn] = name.Name
						c.counterVars[obj] = tn
					}
					if d, ok := analysis.FindVerb(ds, "fpfield"); ok {
						c.fpNames[obj] = tn.Name() + "." + name.Name
						if g := d.Arg("guard"); g != "" {
							deferred = append(deferred, deferredGuard{obj, g, d.Pos})
						} else {
							c.fpVars[obj] = tn
						}
					}
				}
			}
			return true
		})
	}
	for _, d := range deferred {
		tn, ok := byName[d.guard]
		if !ok {
			c.pass.Reportf(d.pos, "fpfield guard=%s names no struct type in this package", d.guard)
			continue
		}
		c.fpVars[d.obj] = tn
	}
	// Directive-registered guards must actually have counters.
	for obj, tn := range c.fpVars {
		if tn == nil {
			continue
		}
		if _, ok := c.counters[tn]; !ok {
			c.pass.Reportf(obj.Pos(), "fpfield guarded by %s, but %s has no //multicube:gencounter field", tn.Name(), tn.Name())
		}
	}
}

// registerAllowlist resolves the cross-package tables against the
// package's import graph.
func (c *collector) registerAllowlist() {
	resolve := func(entry string) (types.Object, string, bool) {
		dot := strings.LastIndexByte(entry, '.')
		pkgType := entry[:dot]
		member := entry[dot+1:]
		slash := strings.LastIndexByte(pkgType, '.')
		pkgPath, typeName := pkgType[:slash], pkgType[slash+1:]
		pkg := analysis.FindImport(c.pass.Pkg, pkgPath)
		if pkg == nil {
			return nil, "", false
		}
		obj := pkg.Scope().Lookup(typeName)
		if obj == nil {
			return nil, "", false
		}
		return obj, member, true
	}
	for _, entry := range c.cfg.Fields {
		obj, field, ok := resolve(entry)
		if !ok {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == field {
				c.fpVars[st.Field(i)] = nil // guard=any
				c.fpNames[st.Field(i)] = named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + field
			}
		}
	}
	for _, entry := range c.cfg.Mutators {
		obj, method, ok := resolve(entry)
		if !ok {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == method {
				c.mutators[m] = true
			}
		}
	}
}

// collectUnit walks one call-graph unit's body, recording writes and
// bumps; nested literals are skipped (they are their own units).
func (c *collector) collectUnit(cu *analysis.CallUnit) {
	u := &funcUnit{cu: cu, bumps: make(map[*types.TypeName]bool)}
	if cu.Decl != nil {
		if _, ok := analysis.FindVerb(analysis.CommentGroupDirectives(cu.Decl.Doc), "fpexempt"); ok {
			u.exempt = true
		}
	} else {
		u.exempt = c.pass.Dirs.NodeHas(cu.Lit.Pos(), "fpexempt")
	}
	c.units = append(c.units, u)
	c.unitOf[cu] = u

	ast.Inspect(cu.Body(), func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl != cu.Lit {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.recordWrite(u, lhs)
			}
		case *ast.IncDecStmt:
			c.recordWrite(u, n.X)
		case *ast.CallExpr:
			c.recordCall(u, n)
		}
		return true
	})
}

// fieldOf resolves expr (unwrapping indexing, parens, derefs) to the
// struct field it selects.
func (c *collector) fieldOf(expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			sel, ok := expr.(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			s := c.pass.TypesInfo.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return nil
			}
			return s.Obj()
		}
	}
}

// recordWrite classifies one assignment/inc-dec target.
func (c *collector) recordWrite(u *funcUnit, lhs ast.Expr) {
	obj := c.fieldOf(lhs)
	if obj == nil {
		return
	}
	if tn, ok := c.counterVars[obj]; ok {
		u.bumps[tn] = true
		return
	}
	guard, ok := c.fpVars[obj]
	if !ok {
		return
	}
	name := c.fpNames[obj]
	if name == "" {
		name = obj.Name()
	}
	u.writes = append(u.writes, writeRec{
		pos:   lhs.Pos(),
		desc:  "field " + name,
		guard: guard,
	})
}

// recordCall classifies builtin mutations (copy/clear/delete into a
// registered field) and registered mutator-method calls; call edges for
// Rule B come from the call-graph engine, not from this walk.
func (c *collector) recordCall(u *funcUnit, call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "copy", "clear", "delete":
			if len(call.Args) > 0 {
				if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					c.recordWrite(u, call.Args[0])
				}
			}
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	callee, _ := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if callee == nil {
		return
	}
	if !c.mutators[callee] {
		return
	}
	// The receiver must be a field of a counter-carrying struct for the
	// obligation to be attributable; x.store.Write(...) obliges a bump of
	// x's struct.
	fieldObj := c.fieldOf(sel.X)
	if fieldObj == nil {
		return
	}
	owner := c.ownerTypeName(fieldObj)
	if owner == nil {
		return
	}
	if _, hasCounter := c.counters[owner]; !hasCounter {
		return
	}
	u.writes = append(u.writes, writeRec{
		pos:   call.Pos(),
		desc:  fmt.Sprintf("state via (%s).%s on %s.%s", callee.Type().(*types.Signature).Recv().Type(), callee.Name(), owner.Name(), fieldObj.Name()),
		guard: owner,
	})
}

// ownerTypeName returns the named struct type declaring field obj, when
// it belongs to this package.
func (c *collector) ownerTypeName(obj types.Object) *types.TypeName {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() || v.Pkg() != c.pass.Pkg {
		return nil
	}
	// Search the package scope for the named type containing this field.
	scope := c.pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn
			}
		}
	}
	return nil
}

// satisfied reports whether a write's obligation is met by the unit's own
// bumps.
func (u *funcUnit) satisfied(w writeRec) bool {
	if w.guard == nil {
		return len(u.bumps) > 0
	}
	return u.bumps[w.guard]
}

// ruleA reports unexempted writes without a same-function bump.
func (c *collector) ruleA() {
	for _, u := range c.units {
		if u.exempt {
			continue
		}
		for _, w := range u.writes {
			if u.satisfied(w) {
				continue
			}
			c.pass.Reportf(w.pos,
				"write to fingerprint-visible %s without a generation bump in this function (bump the guarding counter, or annotate //multicube:fpexempt if every caller bumps)",
				w.desc)
		}
	}
}

// ruleB propagates bump obligations through exempted helpers to exported
// entry points.
func (c *collector) ruleB() {
	for _, u := range c.units {
		if u.cu.Decl == nil || u.cu.Obj == nil || !u.cu.Obj.Exported() || u.exempt {
			continue
		}
		obl := c.obligations(u)
		if len(obl) == 0 {
			continue
		}
		var names []string
		for tn := range obl {
			if tn == anyGuard {
				names = append(names, "substrate state")
			} else {
				names = append(names, tn.Name())
			}
		}
		sortStrings(names)
		c.pass.Reportf(u.cu.Decl.Name.Pos(),
			"exported %s reaches fingerprint-visible writes (guarded by %s) through exempted helpers without bumping a generation counter",
			u.cu.Obj.Name(), strings.Join(names, ", "))
	}
}

// obligations computes the guard types a unit requires its callers to
// cover: its own exempted writes plus its callees' obligations, minus
// whatever its own bumps satisfy.
func (c *collector) obligations(u *funcUnit) map[*types.TypeName]bool {
	if u.obligations != nil {
		return u.obligations
	}
	if u.visiting {
		return nil // break recursion; the cycle's obligations surface elsewhere
	}
	u.visiting = true
	out := make(map[*types.TypeName]bool)
	if u.exempt {
		for _, w := range u.writes {
			if u.satisfied(w) {
				continue
			}
			if w.guard == nil {
				out[anyGuard] = true
			} else {
				out[w.guard] = true
			}
		}
	}
	for _, callee := range u.cu.Callees {
		cv := c.unitOf[callee]
		if cv == nil {
			continue
		}
		for tn := range c.obligations(cv) {
			out[tn] = true
		}
	}
	// The unit's own bumps discharge obligations.
	if len(u.bumps) > 0 {
		delete(out, anyGuard)
		for tn := range u.bumps {
			delete(out, tn)
		}
	}
	u.visiting = false
	u.obligations = out
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
