package mc

import (
	"fmt"
	"reflect"
	"testing"

	"multicube/internal/statespace"
)

// newExplorer is an explorer over a memory-only visited table.
func newExplorer(sc *Scenario, opts Options) *explorer {
	st, _ := statespace.Open(statespace.Config{}) // memory-only: cannot fail
	return &explorer{sc: sc, opts: opts, sh: newShared(sc, &opts), n: sc.N, visited: st}
}

// exploreFromReset is the sequential search with every run started from
// the initial state and its whole prefix replayed — the reference the
// boundary-resuming explorer must match. With rebuild, every run also
// gets a newly built machine and chooser (a boundary is usable only on
// the machine that saved it, so none is); without, one machine serves all
// runs and each item's boundary is withheld from it.
// Only the loop of explorer.drive is repeated here; runs, children and
// the visited table are the explorer's.
func exploreFromReset(sc Scenario, opts Options, rebuild bool) Result {
	sc.FillDefaults()
	opts.fillDefaults()
	e := newExplorer(&sc, opts)
	res := Result{Scenario: sc.Name}
	stack := []workItem{{}}
	cut := false
	for len(stack) > 0 && !e.budget {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if rebuild {
			e.ck = nil
		}
		held := it
		it.from = nil
		r := e.run(it, opts.MaxDepth)
		res.Runs++
		cut = cut || r.limitHit || r.stepsHit
		if r.violation != nil {
			res.Violation = r.violation
			break
		}
		stack = append(stack, e.children(it, r)...)
		e.retire(held, r)
	}
	res.TotalRuns = res.Runs
	res.States = e.visited.States()
	res.BudgetHit = e.budget
	res.Exhausted = res.Violation == nil && !res.BudgetHit && !cut
	res.SCChecks, res.SCUndecided = e.scRuns, e.scUndec
	res.Cost = e.cost
	return res
}

// TestReusedMachineMatchesRebuilt explores swarm scenarios on both
// machines three ways — the explorer as it is, resuming each run from a
// boundary its spawning run saved; one machine reset for every run, the
// boundaries withheld; a machine built per run — and requires the same
// search from all three: every result field, and the unminimized
// counterexample where the injected bug makes one. The one exception is
// the split of FPRecomputes and FPIncremental between the last two, not
// their sum: a reset machine keeps its fingerprint memo, a rebuilt one
// starts without.
func TestReusedMachineMatchesRebuilt(t *testing.T) {
	var searches, states, violations int
	var steps, resetSteps, restores uint64
	for seed := int64(17000); seed <= 17011; seed++ {
		for _, singleBus := range []bool{false, true} {
			for _, inject := range []bool{false, true} {
				if inject && singleBus {
					continue // the injected bug is the grid machine's
				}
				sc := SwarmScenario(seed, singleBus)
				sc.InjectStaleReply = inject
				name := fmt.Sprintf("%s singleBus=%v inject=%v", sc.Name, singleBus, inject)
				opts := Options{MaxStates: 20000, NoMinimize: true}
				reused, err := Explore(sc, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				withheld := exploreFromReset(sc, opts, false)
				if !reflect.DeepEqual(comparable(reused), comparable(withheld)) {
					t.Fatalf("%s: resuming from saved boundaries changed the search:\n resumed:  %+v\n withheld: %+v", name, reused, withheld)
				}
				rebuilt := exploreFromReset(sc, opts, true)
				memoless := withheld
				memoless.FPRecomputes, memoless.FPIncremental = rebuilt.FPRecomputes, rebuilt.FPIncremental
				if !reflect.DeepEqual(memoless, rebuilt) || withheld.FPRecomputes+withheld.FPIncremental != rebuilt.FPRecomputes+rebuilt.FPIncremental {
					t.Fatalf("%s: machine reuse changed the search:\n reused:  %+v\n rebuilt: %+v", name, withheld, rebuilt)
				}
				searches++
				states += reused.States
				if reused.Violation != nil {
					violations++
				}
				if withheld.Runs > 1 && withheld.ReplaySteps == 0 {
					t.Fatalf("%s: %d runs from reset replayed no prefix step", name, withheld.Runs)
				}
				if withheld.Restores != 0 || (singleBus && reused.Restores != 0) {
					t.Fatalf("%s: %d runs resumed from a boundary none should have had (%d on the single-bus machine)",
						name, withheld.Restores, reused.Restores)
				}
				if !singleBus {
					steps += reused.Steps
					resetSteps += withheld.Steps
					restores += reused.Restores
				}
			}
		}
	}
	if violations == 0 {
		t.Fatal("no swarm scenario tripped the injected bug; the counterexample path went untested")
	}
	if restores == 0 || steps >= resetSteps {
		t.Fatalf("boundaries went unused: %d runs resumed; %d kernel steps against %d from reset",
			restores, steps, resetSteps)
	}
	t.Logf("%d searches, %d states, %d with a violation: resumed ≡ withheld ≡ rebuilt; %d of %d kernel steps",
		searches, states, violations, steps, resetSteps)
}

// countingChecker counts the per-step oracle's invocations.
type countingChecker struct {
	checker
	checks uint64
}

func (c *countingChecker) stepCheck(maxReissues int) *Violation {
	c.checks++
	return c.checker.stepCheck(maxReissues)
}

// TestOnlyExplorationSkipsPrefixChecks executes one deep work item both
// ways: as an exploration run, which must skip the per-step oracle
// exactly on the steps before its prefix's last choice (the spawning run
// checked those states), and as a replay — what minimize uses — which
// must check every step, because a replayed violation may sit inside the
// prefix.
func TestOnlyExplorationSkipsPrefixChecks(t *testing.T) {
	sc, err := Preset("read-race")
	if err != nil {
		t.Fatal(err)
	}
	sc.FillDefaults()
	var opts Options
	opts.fillDefaults()
	e := newExplorer(&sc, opts)
	// Descend the leftmost branch a few levels for a long prefix.
	it := workItem{}
	for depth := 0; depth < 6; depth++ {
		kids := e.children(it, e.run(it, 0))
		if len(kids) == 0 {
			break
		}
		it = kids[len(kids)-1]
	}
	if it.scripted < 4 {
		t.Fatalf("work item of %d choices too short to mean anything", it.scripted)
	}
	for _, explore := range []bool{true, false} {
		cc := &countingChecker{checker: newChecker(&sc, e.sh)}
		ch := replayChooser(cc, e.n, choicesOf(&it, it.scripted, nil), &e.opts)
		if explore {
			ch = newMCChooser(cc, e.n, &e.opts)
			ch.start(it, 0, 0)
		}
		steps, replayed := e.cost.Steps, e.cost.ReplaySteps
		r := e.execute(cc, ch, explore, 0)
		steps, replayed = e.cost.Steps-steps, e.cost.ReplaySteps-replayed
		if r.violation != nil {
			t.Fatalf("explore=%v: %v", explore, r.violation)
		}
		want := steps
		if explore {
			if replayed == 0 {
				t.Fatal("an exploration run with a prefix counted no replay steps")
			}
			want -= replayed
		} else if replayed != 0 {
			t.Fatalf("a replay counted %d of its %d steps as prefix replay", replayed, steps)
		}
		if cc.checks != want {
			t.Fatalf("explore=%v: per-step oracle ran %d times over %d steps (%d of them prefix replay), want %d",
				explore, cc.checks, steps, replayed, want)
		}
	}
}
