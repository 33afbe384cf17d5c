package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestParseDirective(t *testing.T) {
	const src = `package p

//multicube:deterministic
// an ordinary comment
//multicube:fpfield guard=Node extra words here
//multicube:
// multicube:spaced is not a directive
var x int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := ParseDirective(c); ok {
				got = append(got, d)
			}
		}
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d directives, want 2: %+v", len(got), got)
	}
	if got[0].Verb != "deterministic" || got[0].Args != "" {
		t.Errorf("got[0] = %+v, want deterministic with no args", got[0])
	}
	if got[1].Verb != "fpfield" || got[1].Arg("guard") != "Node" {
		t.Errorf("got[1] = %+v, want fpfield guard=Node", got[1])
	}
	if got[1].Arg("missing") != "" {
		t.Errorf("Arg on absent key = %q, want empty", got[1].Arg("missing"))
	}
}

func TestDirectiveIndexResolution(t *testing.T) {
	const src = `package p

//multicube:deterministic
var a int

func f(m map[int]int) {
	//multicube:atomicwrite-ok line above
	for range m {
	}
	for range m { //multicube:chooser-ok same line
	}
	for range m {
	}
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	ix := IndexDirectives(fset, []*ast.File{f})
	if !ix.PackageMarked("deterministic") {
		t.Error("package marker not indexed")
	}
	if ix.PackageMarked("durable") {
		t.Error("unused verb reported as package-wide")
	}

	lines := map[int]struct {
		verb string
		want bool
	}{
		8:  {"atomicwrite-ok", true},  // directive on line 7, statement on 8
		10: {"chooser-ok", true},      // same-line trailing directive
		12: {"atomicwrite-ok", false}, // unannotated loop
	}
	for line, c := range lines {
		pos := fset.File(f.Pos()).LineStart(line)
		if got := ix.NodeHas(pos, c.verb); got != c.want {
			t.Errorf("line %d NodeHas(%s) = %v, want %v", line, c.verb, got, c.want)
		}
	}
}
