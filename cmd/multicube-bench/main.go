// Command multicube-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	multicube-bench [-experiment all|fig2|fig2sim|fig3|fig4|tradeoff|latency|
//	                 ops|scale|multi|sync|dims|snarf|mltsize|falseshare|arbitration|
//	                 arbmachine|parallel] [-csv]
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
	"multicube/internal/stats"
)

type renderable interface {
	Render() string
}

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

	runs := []struct {
		name string
		make func() renderable
	}{
		{"fig2", func() renderable { return experiments.Figure2().Table() }},
		{"fig2sim", func() renderable { return experiments.Figure2Sim(nil, 0).Table() }},
		{"fig3", func() renderable { return experiments.Figure3().Table() }},
		{"fig4", func() renderable { return experiments.Figure4().Table() }},
		{"tradeoff", func() renderable { return experiments.BlockTradeoff().Table() }},
		{"latency", func() renderable { return experiments.Latency().Table() }},
		{"ops", func() renderable { return experiments.Ops() }},
		{"scale", func() renderable { return experiments.Scale() }},
		{"multi", func() renderable { return experiments.MultiVsMulticube(0) }},
		{"sync", func() renderable { return experiments.Sync(0) }},
		{"dims", func() renderable { return experiments.Dimensions().Table() }},
		{"snarf", func() renderable { return experiments.Snarf(0) }},
		{"mltsize", func() renderable { return experiments.MLTSize(0) }},
		{"falseshare", func() renderable { return experiments.FalseSharing(0) }},
		{"arbitration", func() renderable { return experiments.Arbitration(0) }},
		{"arbmachine", func() renderable { return experiments.ArbitrationMachine(0) }},
		{"syncscale", func() renderable { return experiments.SyncScaling(0) }},
		{"parallel", func() renderable { return experiments.Parallel(experiments.ParallelConfig{}) }},
	}

	found := false
	for _, r := range runs {
		if *experiment != "all" && *experiment != r.name {
			continue
		}
		found = true
		out := r.make()
		if t, ok := out.(*stats.Table); ok {
			switch {
			case *csv:
				fmt.Print(t.CSV())
				fmt.Println()
				continue
			case *jsonOut:
				lines, err := t.JSONRows(r.name)
				if err != nil {
					fmt.Fprintf(os.Stderr, "multicube-bench: %s: %v\n", r.name, err)
					return 1
				}
				fmt.Print(lines)
				continue
			}
		}
		fmt.Println(out.Render())
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		return 2
	}
	return 0
}
