// Command multicube-sim runs one simulation of the Wisconsin Multicube
// under the synthetic reference workload and prints machine metrics.
//
// Usage:
//
//	multicube-sim [-n 8] [-block 16] [-requests 200] [-think 10us]
//	              [-pshared 0.5] [-pwrite 0.3] [-shared-lines 64]
//	              [-cache-lines 0] [-mlt 0] [-snarf] [-seed 1] [-arb fcfs]
//
// -arb selects the bus service discipline (fcfs, rr, priority) for the
// arbitration ablation.
//
// With -trace-out, the reference stream the run consumed is also written
// as a text trace replayable by multicube-sim -trace-in.
//
// With -memmodel, the simulator instead runs the litmus tests as timed
// DES stress programs (see internal/workload.RunLitmus) across a sweep
// of jitter seeds and judges every captured history with the
// sequential-consistency checker, exiting nonzero on any violation:
//
//	multicube-sim -memmodel [-litmus all] [-n 2] [-seeds 8] [-rounds 4]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"multicube/internal/bus"
	"multicube/internal/core"
	"multicube/internal/memmodel"
	"multicube/internal/sim"
	"multicube/internal/trace"
	"multicube/internal/workload"
)

func main() {
	n := flag.Int("n", 8, "processors per bus (machine is n×n)")
	block := flag.Int("block", 16, "coherency block size in bus words")
	requests := flag.Int("requests", 200, "references per processor")
	think := flag.Duration("think", 10*time.Microsecond, "mean think time")
	exponential := flag.Bool("exponential", true, "exponential think times")
	pshared := flag.Float64("pshared", 0.5, "probability of a shared reference")
	pwrite := flag.Float64("pwrite", 0.3, "probability of a write")
	sharedLines := flag.Int("shared-lines", 64, "shared hot-set size in lines")
	cacheLines := flag.Int("cache-lines", 0, "snooping cache capacity (0 = unbounded)")
	mlt := flag.Int("mlt", 0, "modified line table entries (0 = unbounded)")
	snarf := flag.Bool("snarf", false, "enable retained-tag snarfing")
	seed := flag.Uint64("seed", 1, "workload seed")
	arbName := flag.String("arb", "fcfs", "bus arbitration: fcfs, rr, or priority")
	traceIn := flag.String("trace-in", "", "replay a text trace instead of the generator")
	traceOut := flag.String("trace-out", "", "write the generated references as a text trace")
	memMode := flag.Bool("memmodel", false, "run litmus stress programs and SC-check their histories")
	litmus := flag.String("litmus", "all", "litmus test name for -memmodel (all = whole suite)")
	seeds := flag.Int("seeds", 8, "jitter seeds per litmus configuration (-memmodel)")
	rounds := flag.Int("rounds", 4, "test instances per litmus run (-memmodel)")
	flag.Parse()

	if *memMode {
		runMemmodel(*litmus, *n, *seeds, *rounds, *seed)
		return
	}

	arb, err := bus.ParseArbitration(*arbName)
	if err != nil {
		fatal(err)
	}
	m, err := core.New(core.Config{
		N: *n, BlockWords: *block,
		CacheLines: *cacheLines, CacheAssoc: 4,
		MLTEntries: *mlt, MLTAssoc: 4,
		Snarf:       *snarf,
		Arbitration: arb,
	})
	if err != nil {
		fatal(err)
	}

	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fatal(err)
		}
		tr, err := trace.ReadText(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := trace.Replay(m, tr, sim.Time(think.Nanoseconds())); err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %d references on %s\n\n", tr.Len(), describe(m))
		fmt.Print(m.Metrics())
		checkInvariants(m)
		return
	}

	cfg := workload.GenConfig{
		Seed:        *seed,
		Think:       sim.Time(think.Nanoseconds()),
		Exponential: *exponential,
		SharedLines: *sharedLines,
		PShared:     *pshared,
		PWrite:      *pwrite,
		Requests:    *requests,
	}
	rep := workload.Run(m, cfg)

	fmt.Printf("machine   %s\n", describe(m))
	fmt.Printf("workload  %s\n\n", cfg.Describe())
	mt := m.Metrics()
	fmt.Print(mt)
	fmt.Printf("hottest column       col%d utilization %.3f (mean %.3f), %d memory reissues (mean %.1f)\n",
		mt.HotCol, mt.MaxColUtil, mt.MeanColUtil, m.System().MemoryAt(mt.HotCol).Store().Stats().Reissues,
		float64(mt.MemoryReissues)/float64(m.Config().N))
	fmt.Printf("\nefficiency        %.4f\n", rep.Efficiency())
	fmt.Printf("bus request rate  %.2f req/ms/processor\n", rep.BusRate(m.Processors()))
	checkInvariants(m)

	if *traceOut != "" {
		tr := &trace.Trace{}
		workload.References(cfg, m.Processors(), m.BlockWords(), tr.AppendRef)
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := tr.WriteText(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %d-record trace to %s\n", tr.Len(), *traceOut)
	}
}

// runMemmodel sweeps the litmus suite (or one named test) over seeds
// jitter seeds in both home-column placements, SC-checking every
// captured history. Any violation or undecided check exits nonzero.
func runMemmodel(name string, n, seeds, rounds int, baseSeed uint64) {
	runs, err := workload.LitmusSweep(name, seeds, workload.LitmusConfig{N: n, Rounds: rounds, Seed: baseSeed})
	if err != nil {
		fatal(err)
	}
	bad := 0
	for i, cfg := range runs {
		rep, err := workload.RunLitmus(cfg)
		if err != nil {
			fatal(err)
		}
		if rep.Check.Verdict != memmodel.VerdictOK {
			bad++
			fmt.Printf("litmus %-5s %s seed %d: %v: %s\nhistory:\n%s",
				cfg.Test, cfg.Placement(), cfg.Seed,
				rep.Check.Verdict, rep.Check.Reason, rep.History)
		}
		// One summary line per test and placement, after its last seed.
		if (i+1)%seeds == 0 {
			fmt.Printf("litmus %-5s %s: %d seeds ok (%d events/run, %v simulated)\n",
				cfg.Test, cfg.Placement(), seeds, rep.History.Len(), rep.Elapsed)
		}
	}
	fmt.Printf("\nmemmodel: %d runs on %d×%d machines, %d SC failures\n", len(runs), n, n, bad)
	if bad > 0 {
		os.Exit(1)
	}
}

func describe(m *core.Machine) string {
	cfg := m.Config()
	return fmt.Sprintf("Wisconsin Multicube %d×%d (%d processors), %d-word blocks",
		cfg.N, cfg.N, m.Processors(), cfg.BlockWords)
}

func checkInvariants(m *core.Machine) {
	if errs := m.CheckInvariants(); len(errs) > 0 {
		fmt.Fprintln(os.Stderr, "\nINVARIANT VIOLATIONS:")
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "  %v\n", e)
		}
		os.Exit(1)
	}
	fmt.Println("\ncoherence invariants: ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "multicube-sim:", err)
	os.Exit(1)
}
