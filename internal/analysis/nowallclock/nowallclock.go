// Package nowallclock forbids ambient nondeterminism in packages marked
// //multicube:deterministic: the wall clock, the global math/rand state,
// the process environment, and formatting of map values (whose rendered
// order is randomized). The model checker's state space, fingerprints,
// and counterexample traces must be pure functions of (preset, seed); any
// of these leaks breaks replay and cross-run comparison.
//
// Banned:
//
//   - time.Now, Since, Until, Sleep, After, AfterFunc, Tick, NewTimer,
//     NewTicker (timer values and durations observed from the wall clock)
//   - package-level math/rand and math/rand/v2 functions (global,
//     unseeded state; rand.New with an explicit source is fine)
//   - os.Getenv, os.LookupEnv, os.Environ (environment-dependent behavior
//     belongs in cmd/, resolved into explicit presets)
//   - fmt.* / log.* calls with a map-typed argument (map formatting
//     iterates in randomized order — fmt sorts keys only for simple
//     types, and error strings feed counterexample comparisons)
package nowallclock

import (
	"go/ast"
	"go/types"

	"multicube/internal/analysis"
)

// Analyzer is the nowallclock pass.
var Analyzer = &analysis.Analyzer{
	Name: "nowallclock",
	Doc:  "no wall clock, global randomness, or environment reads in deterministic packages",
	Run:  run,
}

// banned maps package path -> function name -> short reason.
var banned = map[string]map[string]string{
	"time": {
		"Now": "wall clock", "Since": "wall clock", "Until": "wall clock",
		"Sleep": "wall-clock delay", "After": "wall-clock timer",
		"AfterFunc": "wall-clock timer", "Tick": "wall-clock timer",
		"NewTimer": "wall-clock timer", "NewTicker": "wall-clock timer",
	},
	"os": {
		"Getenv": "environment read", "LookupEnv": "environment read",
		"Environ": "environment read",
	},
}

// randBanned lists math/rand package-level functions using the global
// source. Constructors (New, NewSource, NewPCG, NewChaCha8) are allowed.
var randBanned = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Int32": true, "Int32N": true, "IntN": true, "Uint32": true,
	"Uint64": true, "Uint64N": true, "Uint32N": true, "UintN": true,
	"Uint": true, "Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true, "N": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !pass.Dirs.PackageMarked("deterministic") {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
			if !ok {
				return true
			}
			path := pn.Imported().Path()
			name := sel.Sel.Name
			if reason, ok := banned[path][name]; ok {
				pass.Reportf(call.Pos(),
					"%s.%s in a deterministic package (%s breaks replay; thread explicit state through the preset)",
					pkgID.Name, name, reason)
				return true
			}
			if (path == "math/rand" || path == "math/rand/v2") && randBanned[name] {
				pass.Reportf(call.Pos(),
					"global %s.%s in a deterministic package (unseeded shared state; use rand.New with a seed from the preset)",
					pkgID.Name, name)
				return true
			}
			if path == "fmt" || path == "log" {
				for _, arg := range call.Args {
					tv, ok := pass.TypesInfo.Types[arg]
					if !ok {
						continue
					}
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(arg.Pos(),
							"formatting a map with %s.%s in a deterministic package (rendered order is randomized for non-trivial keys; sort into a slice first)",
							pkgID.Name, name)
					}
				}
			}
			return true
		})
	}
	return nil, nil
}
