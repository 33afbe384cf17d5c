// Command multicube-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	multicube-bench [-experiment all|fig2|fig2sim|fig3|fig4|tradeoff|latency|
//	                 ops|scale|multi|sync|dims|snarf|mltsize|falseshare|arbitration|
//	                 arbmachine|syncscale] [-csv]
//
// (the list is experiments.All).
//
// Each experiment prints a table: figures have one row per x value and
// one column per curve, matching how the paper's plots read. See
// EXPERIMENTS.md for the paper-versus-measured record. Host performance
// is measured by `go run ./benchmark`, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"multicube/internal/experiments"
)

func main() {
	os.Exit(run())
}

// run is the real main; routing the exit status through a return keeps
// the deferred profile writers running on every path.
func run() int {
	experiment := flag.String("experiment", "all", "which experiment to run")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit JSON Lines (one object per table row; see README for the schema)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *csv && *jsonOut {
		fmt.Fprintln(os.Stderr, "multicube-bench: -csv and -json are mutually exclusive")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "multicube-bench: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "multicube-bench: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "multicube-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "multicube-bench: -memprofile: %v\n", err)
			}
		}()
	}

	found := false
	for _, e := range experiments.All() {
		if *experiment != "all" && *experiment != e.Name {
			continue
		}
		found = true
		t := e.Table()
		switch {
		case *csv:
			fmt.Print(t.CSV())
			fmt.Println()
		case *jsonOut:
			lines, err := t.JSONRows(e.Name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "multicube-bench: %s: %v\n", e.Name, err)
				return 1
			}
			fmt.Print(lines)
		default:
			fmt.Println(t.Render())
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		return 2
	}
	return 0
}
