package mc

import (
	"reflect"
	"testing"

	"multicube/internal/coherence"
)

// firstSiblingWithBoundary runs the root of the scenario on e and returns
// a spawned branch that holds a boundary.
func firstSiblingWithBoundary(t *testing.T, e *explorer) workItem {
	t.Helper()
	for _, it := range e.children(workItem{}, e.run(workItem{}, 0)) {
		if it.from != nil {
			return it
		}
	}
	t.Fatal("the root run saved no boundary")
	return workItem{}
}

// TestLoadInvalidatesWhatGenerationsKey: the machine's generation counters
// are rewound by a load, so generation g of the abandoned run is not
// generation g of the resumed one. The instance's own cache beside them —
// the per-processor driver hashes — must start over, and so must the
// per-execution counters.
func TestLoadInvalidatesWhatGenerationsKey(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	sc.FillDefaults()
	var opts Options
	opts.fillDefaults()
	e := newExplorer(&sc, opts)
	it := firstSiblingWithBoundary(t, e)
	in := e.ck.(*instance)
	// The root run ended with every cache warm.
	for p, dirty := range in.drvDirty {
		if dirty {
			t.Fatalf("processor %d's driver hash was never taken; the run fingerprinted nothing", p)
		}
	}
	if n := in.fpStats(); n.FPRecomputes == 0 || n.FPIncremental == 0 || n.FPPoints == 0 || n.FPCombines < n.FPPoints {
		t.Fatalf("the root run counted %+v", n)
	}
	in.load(&it.from.st)
	for p, dirty := range in.drvDirty {
		if !dirty {
			t.Errorf("processor %d's driver hash survived the load", p)
		}
	}
	if n := in.fpStats(); n != (Cost{}) {
		t.Errorf("fingerprint counters at %+v after the load; they are per execution", n)
	}
	if checks, undecided := in.scStats(); checks != 0 || undecided != 0 {
		t.Errorf("SC counters at %d/%d after the load; they are per execution", checks, undecided)
	}
}

// TestStepGuardCountsThePath: MaxStepsPerRun bounds the length of an
// execution path, so a run resumed from a boundary counts the steps that
// led to the boundary too. With the guard set inside the scenario's
// longest path, the resuming search must cut exactly the runs the search
// that replays every prefix cuts; had it counted only the steps it
// executed, it would cut none.
func TestStepGuardCountsThePath(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	sc.FillDefaults()
	var defaults Options
	defaults.fillDefaults()
	e := newExplorer(&sc, defaults)
	e.run(workItem{}, 0)
	guard := int(e.cost.Steps) / 2 // half the first path
	opts := Options{MaxStates: 20000, NoMinimize: true, MaxStepsPerRun: guard}
	resumed, err := Explore(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	withheld := exploreFromReset(sc, opts, false)
	if withheld.Exhausted || withheld.Runs < 10 {
		t.Fatalf("a guard of %d steps cut nothing, or everything: %+v", guard, withheld)
	}
	if resumed.Restores == 0 {
		t.Fatal("no run resumed from a boundary")
	}
	if !reflect.DeepEqual(comparable(resumed), comparable(withheld)) {
		t.Fatalf("guard of %d steps:\n resumed:  %+v\n withheld: %+v", guard, resumed, withheld)
	}
}

// TestInstrumentAndExecutedPerRun pins what a harness sees through the two
// passive hooks (the benchmark's traced runs read exactly this): Instrument
// fires once per run, after a load as after a reset, on the same machine;
// and that machine's Kernel.Executed, read when the run is over, is the
// steps the run really executed — it restarts at a load — so the readings
// add up to Result.Steps, not to the length of the paths.
func TestInstrumentAndExecutedPerRun(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	var sys *coherence.System
	var fired, reports int
	var executed uint64
	var last Progress
	res, err := Explore(sc, Options{
		MaxStates: 20000,
		Instrument: func(s *coherence.System) {
			if sys != nil && sys != s {
				t.Error("a sequential search instrumented a second machine")
			}
			if fired != reports {
				t.Errorf("Instrument fired %d times before run %d ended", fired-reports+1, reports+1)
			}
			sys = s
			fired++
		},
		Progress: func(p Progress) {
			reports++
			executed += sys.Kernel().Executed()
			last = p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired != res.Runs || reports != res.Runs {
		t.Fatalf("Instrument fired %d times and Progress %d over %d runs", fired, reports, res.Runs)
	}
	if res.Restores == 0 || res.PeakBoundaries == 0 {
		t.Fatalf("%d runs resumed from a boundary, peak %d alive", res.Restores, res.PeakBoundaries)
	}
	if executed != res.Steps {
		t.Fatalf("Kernel.Executed summed over the runs is %d, Result.Steps %d", executed, res.Steps)
	}
	if last.Steps != res.Steps || last.ReplaySteps != res.ReplaySteps || last.Restores != res.Restores {
		t.Fatalf("the last Progress says %d steps, %d replayed, %d restores; the Result %d, %d, %d",
			last.Steps, last.ReplaySteps, last.Restores, res.Steps, res.ReplaySteps, res.Restores)
	}
}
