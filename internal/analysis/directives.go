package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive comments carry the suite's machine-readable annotations. The
// syntax is a comment beginning exactly with "//multicube:" (no space, like
// //go: directives), a verb, and optional space-separated arguments; the
// remainder after the recognized arguments is a free-form reason.
//
// Verbs understood by the passes:
//
//	//multicube:deterministic
//	    Package marker (any file). Opts the package into the determinism
//	    passes (detmap, nowallclock, chooserseam).
//
//	//multicube:gencounter
//	    On a struct field: marks it as the generation counter guarding the
//	    struct's fingerprint-visible state.
//
//	//multicube:fpfield [guard=Type]
//	    On a struct field: marks it fingerprint-visible. A function writing
//	    it must bump the guarding struct's generation counter (by default
//	    the field's own struct; guard=Type names another same-package
//	    struct).
//
//	//multicube:fpexempt <reason>
//	    On a function declaration (doc comment) or on the line before a
//	    func literal: suppresses the same-function bump requirement. The
//	    obligation propagates to callers: an exported mutator reaching an
//	    exempted helper without bumping is still flagged.
//
//	//multicube:chooser-ok <reason>
//	    On (or before) a go statement or select: the nondeterminism is
//	    outside the explored state space (e.g. a worker pool whose results
//	    are re-derived deterministically).
//
//	//multicube:inclusion
//	    Package marker (any file). Opts the package into the inclusion
//	    pass: every snooping-cache eviction must reach an upper-level
//	    purge on a same-function path (invariant 6 at vet time).
//
//	//multicube:inclusion-purge
//	    On a function declaration (doc comment) or on the line before a
//	    func literal: the function purges the registered upper-level
//	    views; reaching it discharges an eviction's purge obligation.
//
//	//multicube:durable
//	    Package marker (any file). Opts the package into the atomicwrite
//	    pass: durable files are written temp+sync+rename and deleted
//	    only under the manifest-pin discipline.
//
//	//multicube:atomicwrite-ok <reason>
//	    Escape hatch for atomicwrite findings, on (or before) the
//	    statement or on the enclosing function's doc comment; the reason
//	    names the retention rule that makes the operation safe.
const directivePrefix = "//multicube:"

// Directive is one parsed //multicube: comment.
type Directive struct {
	Verb string // "fpfield", "deterministic", ...
	Args string // raw remainder after the verb
	Pos  token.Pos
}

// Arg returns the value of a key=value argument, or "".
func (d Directive) Arg(key string) string {
	for _, f := range strings.Fields(d.Args) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	return ""
}

// DirectiveIndex locates directives by file line so statement-level
// annotations (which Go does not attach to AST nodes) can be resolved.
type DirectiveIndex struct {
	fset    *token.FileSet
	byLine  map[lineKey][]Directive
	pkgWide map[string]bool
}

type lineKey struct {
	file string
	line int
}

// ParseDirective parses one comment's text, reporting ok=false for
// non-directive comments.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	text, ok := strings.CutPrefix(c.Text, directivePrefix)
	if !ok {
		return Directive{}, false
	}
	verb, args, _ := strings.Cut(text, " ")
	verb = strings.TrimSpace(verb)
	if verb == "" {
		return Directive{}, false
	}
	return Directive{Verb: verb, Args: strings.TrimSpace(args), Pos: c.Slash}, true
}

// IndexDirectives scans every comment of files.
func IndexDirectives(fset *token.FileSet, files []*ast.File) *DirectiveIndex {
	ix := &DirectiveIndex{
		fset:    fset,
		byLine:  make(map[lineKey][]Directive),
		pkgWide: make(map[string]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := ParseDirective(c)
				if !ok {
					continue
				}
				p := fset.Position(c.Slash)
				ix.byLine[lineKey{p.Filename, p.Line}] = append(ix.byLine[lineKey{p.Filename, p.Line}], d)
				ix.pkgWide[d.Verb] = true
			}
		}
	}
	return ix
}

// PackageMarked reports whether any file carries the given package-wide
// directive verb (e.g. "deterministic").
func (ix *DirectiveIndex) PackageMarked(verb string) bool { return ix.pkgWide[verb] }

// ForNode returns the directives annotating the node at pos: those on the
// node's own starting line or on the line immediately above it (the two
// conventional placements for statement annotations).
func (ix *DirectiveIndex) ForNode(pos token.Pos) []Directive {
	p := ix.fset.Position(pos)
	var out []Directive
	out = append(out, ix.byLine[lineKey{p.Filename, p.Line - 1}]...)
	out = append(out, ix.byLine[lineKey{p.Filename, p.Line}]...)
	return out
}

// NodeHas reports whether the node at pos is annotated with verb (same line
// or the line above).
func (ix *DirectiveIndex) NodeHas(pos token.Pos, verb string) bool {
	for _, d := range ix.ForNode(pos) {
		if d.Verb == verb {
			return true
		}
	}
	return false
}

// CommentGroupDirectives parses the directives of a doc-comment group
// (function or field documentation); cg may be nil.
func CommentGroupDirectives(cg ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, g := range cg {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if d, ok := ParseDirective(c); ok {
				out = append(out, d)
			}
		}
	}
	return out
}

// FindVerb returns the first directive with the given verb, if any.
func FindVerb(ds []Directive, verb string) (Directive, bool) {
	for _, d := range ds {
		if d.Verb == verb {
			return d, true
		}
	}
	return Directive{}, false
}
