// Command multicube-mc model-checks the Appendix A coherence protocol:
// it drives the real protocol engine through every reachable
// interleaving of a small bounded scenario, checking the global-state
// invariants, a per-address sequential-consistency witness, progress
// (no lost transactions), and a retransmission bound.
//
// Usage:
//
//	multicube-mc -preset readmod-race [-budget 200000] [-depth-step 0]
//	             [-inject] [-no-por] [-no-sleep]
//	             [-no-minimize] [-quiet] [-json] [-checkfp]
//	             [-store dir] [-mem-budget bytes] [-checkpoint dir]
//	             [-checkpoint-every n] [-resume]
//	             [-cpuprofile f] [-memprofile f]
//	multicube-mc -list
//
// -store/-mem-budget bound the visited table's RAM and spill cold shards
// to disk; -checkpoint/-resume make a killed run resumable with a
// byte-identical verdict (see "Exploring beyond RAM" in the README).
//
// On a violation the exit status is 1 and the minimized counterexample
// is printed as a choice sequence plus the annotated bus-operation
// trace of its replay. -inject disables the stale in-flight reply
// defense (DESIGN.md §5.6a) to demonstrate the checker catching the
// resulting stale-sharer state.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"multicube/internal/mc"
)

func main() {
	os.Exit(run())
}

// run is the real main; routing the exit status through a return keeps
// the deferred profile writers running on every path.
func run() int {
	preset := flag.String("preset", "", "scenario to check (see -list)")
	list := flag.Bool("list", false, "list the built-in presets and exit")
	budget := flag.Int("budget", 0, "visited-state budget (default 200000)")
	depth := flag.Int("depth", 0, "choice-depth bound (0 = unlimited)")
	depthStep := flag.Int("depth-step", 0, "iterative-deepening step (0 = single full-depth pass)")
	inject := flag.Bool("inject", false, "disable the stale-reply defense of DESIGN.md §5.6a")
	noPOR := flag.Bool("no-por", false, "disable the partial-order reduction entirely")
	noSleep := flag.Bool("no-sleep", false, "keep eager-firing but disable the sleep sets")
	noMin := flag.Bool("no-minimize", false, "skip counterexample shrinking")
	scNodes := flag.Int("sc-nodes", 0, "per-execution SC search node budget for CheckSC scenarios (0 = memmodel default)")
	quiet := flag.Bool("quiet", false, "suppress the bus trace on violations")
	checkFP := flag.Bool("checkfp", false, "cross-check the incremental fingerprint against a from-scratch recompute at every choice point (slow; grid scenarios only)")
	storeDir := flag.String("store", "", "spill directory for the visited-state store (empty = memory-only)")
	memBudget := flag.Int64("mem-budget", 0, "visited-store memory budget in bytes before spilling to -store (0 = unbounded)")
	ckptDir := flag.String("checkpoint", "", "directory for periodic search checkpoints")
	ckptEvery := flag.Int("checkpoint-every", 0, "executions between checkpoints (default 512)")
	resume := flag.Bool("resume", false, "resume from the newest matching checkpoint in -checkpoint")
	jsonOut := flag.Bool("json", false, "emit the result as JSON on stdout instead of text")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "multicube-mc: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "multicube-mc: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "multicube-mc: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "multicube-mc: -memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, name := range mc.Presets() {
			sc, _ := mc.Preset(name)
			where := "a single bus"
			if !sc.SingleBus {
				if sc.N == 0 {
					sc.N = 2
				}
				where = fmt.Sprintf("a %dx%d grid", sc.N, sc.N)
			}
			fmt.Printf("%-18s %d procs, %d ops on %s\n",
				name, len(sc.Procs), sc.TotalOps(), where)
		}
		return 0
	}
	if *preset == "" {
		fmt.Fprintln(os.Stderr, "multicube-mc: -preset required (try -list)")
		return 2
	}
	sc, err := mc.Preset(*preset)
	if err != nil {
		fmt.Fprintf(os.Stderr, "multicube-mc: %v\n", err)
		return 2
	}
	sc.InjectStaleReply = *inject
	opts := mc.Options{
		MaxStates:       *budget,
		MaxDepth:        *depth,
		DepthStep:       *depthStep,
		DisablePOR:      *noPOR,
		DisableSleep:    *noSleep,
		NoMinimize:      *noMin,
		SCNodes:         *scNodes,
		CheckFP:         *checkFP,
		StoreDir:        *storeDir,
		MemBudget:       *memBudget,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		Resume:          *resume,
	}

	start := time.Now()
	res, err := mc.Explore(sc, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "multicube-mc: %v\n", err)
		return 2
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	reads := 0.0 // per lookup in a spilled run
	if res.StoreDisk > 0 {
		reads = float64(res.StoreReads) / float64(res.StoreDisk)
	}

	if *jsonOut {
		out := struct {
			mc.Result
			FPRelabelings      int     `json:"fp_relabelings"`
			ElapsedMS          int64   `json:"elapsed_ms"`
			StatesPerSec       float64 `json:"states_per_sec"`
			PeakRSSBytes       int64   `json:"peak_rss_bytes"`
			ReadsPerDiskLookup float64 `json:"reads_per_disk_lookup"`
		}{Result: res, FPRelabelings: relabelings(sc), ElapsedMS: elapsed.Milliseconds(),
			StatesPerSec: statesPerSec(res.States, elapsed), PeakRSSBytes: peakRSS(),
			ReadsPerDiskLookup: reads}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "multicube-mc: %v\n", err)
			return 2
		}
		if res.Violation != nil {
			return 1
		}
		return 0
	}

	fmt.Printf("scenario  %s\n", res.Scenario)
	if res.Resumed {
		fmt.Printf("resumed   true (continued from checkpoint)\n")
	}
	if res.ResumeNote != "" {
		fmt.Printf("resumed   false: %s\n", res.ResumeNote)
	}
	fmt.Printf("states    %d distinct canonical states\n", res.States)
	fmt.Printf("runs      %d executions (%d across deepening)\n", res.Runs, res.TotalRuns)
	fmt.Printf("store     %d revisits answered hot, %d run lookups past the filter (%.2f reads each); %d spills, %d syncs, %d bytes on disk\n",
		res.StoreHot, res.StoreDisk, reads, res.Spills, res.Syncs, res.DiskBytes)
	switch {
	case res.Exhausted:
		fmt.Printf("coverage  exhausted: every reachable interleaving within bounds\n")
	case res.BudgetHit:
		fmt.Printf("coverage  stopped at the %d-state budget\n", res.States)
	default:
		fmt.Printf("coverage  partial (depth %d)\n", res.Depth)
	}
	fmt.Printf("elapsed   %v\n", elapsed)
	if res.FPPoints > 0 {
		fmt.Printf("fp        %d component recomputes, %d cache hits; %d points, %.2f of %d relabelings per point\n",
			res.FPRecomputes, res.FPIncremental, res.FPPoints, float64(res.FPCombines)/float64(res.FPPoints), relabelings(sc))
	}
	if res.Steps > 0 {
		fmt.Printf("replay    %d of %d kernel steps (%.1f %%)\n", res.ReplaySteps, res.Steps,
			100*float64(res.ReplaySteps)/float64(res.Steps))
		fmt.Printf("restore   %d of %d runs from a saved boundary (peak %d alive)\n", res.Restores, res.TotalRuns, res.PeakBoundaries)
	}
	if res.SCVerdict != "" {
		fmt.Printf("sc        %d histories checked (%d undecided): %s\n",
			res.SCChecks, res.SCUndecided, res.SCVerdict)
	}

	if res.Violation == nil {
		fmt.Printf("result    no violations\n")
		return 0
	}
	v := res.Violation
	fmt.Printf("result    %s VIOLATION: %s\n", v.Kind, v.Msg)
	fmt.Printf("choices   %v\n", v.Choices)
	if !*quiet {
		rr, err := mc.Replay(sc, v.Choices, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "multicube-mc: replay: %v\n", err)
			return 1
		}
		fmt.Printf("\nreplayed bus-operation trace (%d kernel steps):\n", rr.Steps)
		if err := rr.Log.WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "multicube-mc: %v\n", err)
		}
		if rr.Violation != nil {
			fmt.Printf("\nreplay reproduces: %s\n", rr.Violation.Msg)
		}
	}
	return 1
}

// relabelings is the size of the table the grid's canonical form picks
// from (internal/mc's colsym.go): every relabeling of the rows times every
// relabeling of the columns no program line is homed on (line L lives on
// column L mod N) — or the identity alone beyond four of either.
func relabelings(sc mc.Scenario) int {
	sc.FillDefaults()
	homed := make(map[uint64]bool)
	for _, pr := range sc.Procs {
		for _, op := range pr.Ops {
			homed[op.Line%uint64(sc.N)] = true
		}
	}
	size := 1
	for _, k := range []int{sc.N, sc.N - len(homed)} {
		for ; k > 1 && k <= 4; k-- {
			size *= k
		}
	}
	return size
}
