// Package multichecker drives the multicube invariant suite: it loads the
// requested packages once and applies every registered analyzer, printing
// findings in the conventional file:line:col form. cmd/multicube-vet is a
// thin main around Run; tests call Run directly.
package multichecker

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"multicube/internal/analysis"
	"multicube/internal/analysis/atomicwrite"
	"multicube/internal/analysis/chooserseam"
	"multicube/internal/analysis/detmap"
	"multicube/internal/analysis/genbump"
	"multicube/internal/analysis/inclusion"
	"multicube/internal/analysis/nowallclock"
)

// Suite returns the full analyzer suite in its canonical order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		genbump.Analyzer,
		detmap.Analyzer,
		nowallclock.Analyzer,
		chooserseam.Analyzer,
		inclusion.Analyzer,
		atomicwrite.Analyzer,
	}
}

// jsonReport is the -json output shape, consumed by CI artifact uploads
// and the benchmark harness.
type jsonReport struct {
	Packages   []string      `json:"packages"`
	Findings   []jsonFinding `json:"findings"`
	AnalyzerMS []jsonTiming  `json:"analyzer_ms"`
	EndToEndS  float64       `json:"end_to_end_sec"`
}

type jsonFinding struct {
	Pass    string `json:"pass"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

type jsonTiming struct {
	Pass string  `json:"pass"`
	MS   float64 `json:"ms"`
}

// Exit codes, matching go vet's convention.
const (
	ExitClean    = 0
	ExitFindings = 1
	ExitError    = 2
)

// Run executes the suite over the packages matching args in moduleDir,
// writing findings to out. Flags accepted in args (before patterns):
//
//	-only=a,b   run only the named analyzers
//	-time       print per-analyzer wall time to out after the findings
//	-json       emit one machine-readable report instead of text
//
// The returned int is the process exit code.
func Run(moduleDir string, out io.Writer, args []string) int {
	start := time.Now()
	fs := flag.NewFlagSet("multicube-vet", flag.ContinueOnError)
	fs.SetOutput(out)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	timing := fs.Bool("time", false, "print per-analyzer wall time")
	asJSON := fs.Bool("json", false, "emit a JSON report (findings, per-pass wall time) instead of text")
	fs.Usage = func() {
		fmt.Fprintf(out, "usage: multicube-vet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range Suite() {
			fmt.Fprintf(out, "  %-12s %s\n", a.Name, firstLine(a.Doc))
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}

	analyzers := Suite()
	if *only != "" {
		keep := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(out, "multicube-vet: unknown analyzer %q\n", name)
			return ExitError
		}
		analyzers = filtered
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: moduleDir}, patterns...)
	if err != nil {
		fmt.Fprintf(out, "multicube-vet: %v\n", err)
		return ExitError
	}
	findings, times, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(out, "multicube-vet: %v\n", err)
		return ExitError
	}
	if *asJSON {
		if err := writeJSON(moduleDir, out, pkgs, findings, times, start); err != nil {
			fmt.Fprintf(out, "multicube-vet: %v\n", err)
			return ExitError
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(out, f.String())
		}
		if *timing {
			for _, t := range times {
				fmt.Fprintf(out, "# %-12s %s\n", t.Analyzer, t.Elapsed)
			}
		}
	}
	if len(findings) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// writeJSON renders the machine-readable report, with file paths
// relativized to the module root so the output is checkout-independent.
func writeJSON(moduleDir string, out io.Writer, pkgs []*analysis.Package, findings []analysis.Finding, times []analysis.Timing, start time.Time) error {
	rep := jsonReport{
		Packages:   []string{},
		Findings:   []jsonFinding{},
		AnalyzerMS: []jsonTiming{},
	}
	for _, p := range pkgs {
		rep.Packages = append(rep.Packages, p.PkgPath)
	}
	for _, f := range findings {
		pos := f.Pkg.Fset.Position(f.Diag.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(moduleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		rep.Findings = append(rep.Findings, jsonFinding{
			Pass:    f.Analyzer.Name,
			File:    file,
			Line:    pos.Line,
			Col:     pos.Column,
			Message: f.Diag.Message,
		})
	}
	for _, t := range times {
		rep.AnalyzerMS = append(rep.AnalyzerMS, jsonTiming{
			Pass: t.Analyzer,
			MS:   float64(t.Elapsed.Microseconds()) / 1000,
		})
	}
	rep.EndToEndS = time.Since(start).Seconds()
	enc := json.NewEncoder(out)
	enc.SetIndent("", " ")
	return enc.Encode(&rep)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
