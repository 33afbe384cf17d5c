// Package analysistest runs analyzers over fixture packages and checks
// the reported diagnostics against expectations written in the fixture
// sources, mirroring golang.org/x/tools/go/analysis/analysistest on this
// repository's standard-library analysis framework.
//
// An expectation is a comment of the form
//
//	// want "regexp"
//	// want `regexp` `another`
//
// on the same line as the code that should be flagged. Every diagnostic
// must match one expectation on its line, and every expectation must be
// matched by exactly one diagnostic; anything unmatched in either
// direction fails the test.
package analysistest

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"multicube/internal/analysis"
)

// ModuleRoot walks up from the test's working directory to the
// enclosing go.mod, which anchors `go list` runs for fixture imports.
func ModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatalf("analysistest: getwd: %v", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatalf("analysistest: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// expectation is one `// want` regexp awaiting a diagnostic.
type expectation struct {
	raw     string
	re      *regexp.Regexp
	matched bool
}

type lineKey struct {
	file string // base name
	line int
}

// wantRE extracts the quoted patterns after the want marker. Both
// interpreted and raw string syntax are accepted; raw strings let
// patterns contain double quotes without escaping.
var wantRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// Run loads the fixture package in dir with analysis.LoadDir, applies
// the analyzers, and checks diagnostics against the fixture's want
// comments. It returns the findings so callers can make further
// assertions.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) []analysis.Finding {
	t.Helper()
	pkg, err := analysis.LoadDir(ModuleRoot(t), dir)
	if err != nil {
		t.Fatalf("analysistest: loading %s: %v", dir, err)
	}
	findings, _, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("analysistest: running analyzers on %s: %v", dir, err)
	}

	wants := collectWants(t, pkg)
	for _, f := range findings {
		pos := pkg.Fset.Position(f.Diag.Pos)
		key := lineKey{filepath.Base(pos.Filename), pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Diag.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", pos, f.Diag.Message, f.Analyzer.Name)
		}
	}
	var keys []lineKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, w.raw)
			}
		}
	}
	return findings
}

// collectWants parses every want comment in the fixture's syntax trees.
func collectWants(t *testing.T, pkg *analysis.Package) map[lineKey][]*expectation {
	t.Helper()
	wants := make(map[lineKey][]*expectation)
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := lineKey{filepath.Base(pos.Filename), pos.Line}
				quoted := wantRE.FindAllString(text, -1)
				if len(quoted) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, q := range quoted {
					var pat string
					if q[0] == '`' {
						pat = q[1 : len(q)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants[key] = append(wants[key], &expectation{raw: pat, re: re})
				}
			}
		}
	}
	return wants
}
