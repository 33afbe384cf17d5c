package mc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"multicube/internal/fphash"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// fieldClasses sorts the fields of the explorer's half of a rewindable
// execution — the driver and the grid instance — into the classes of
// internal/coherence's fields_test.go, which does the same for the
// machine: rewound (save copies it, load writes it back), hook, wiring,
// scratch.
type fieldClasses struct {
	of                             reflect.Type
	rewound, hook, wiring, scratch []string
}

func typeOf[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

var rewindFields = []fieldClasses{
	{
		of:      typeOf[driver](),
		rewound: []string{"pc", "completed", "wit", "failure"},
		wiring:  []string{"sc", "sh", "k", "issueFn", "label"},
		scratch: []string{"scChecks", "scUndecided"},
	},
	{
		of:      typeOf[instance](),
		rewound: []string{"driver", "sys", "held"},
		// root is the execution as newInstance built it, saved once: what
		// reset loads, never written again.
		wiring: []string{"root"},
		// fpc is a memo keyed on the machine's rewind labels: a load
		// leaves it as it is, and the sweep below holds it to the replay
		// by the fingerprint it gives.
		scratch: []string{"fpc", "drvH", "drvDirty", "fpn", "sigR", "sigC", "dupSeen"},
	},
}

// TestEveryFieldIsClassified fails when the driver or the instance gains
// a field nobody has decided the class of (or loses one a list still
// names): a field forgotten by save or load is a silent wrong verdict, so
// adding one means opening the two and then one of the lists above.
func TestEveryFieldIsClassified(t *testing.T) {
	for _, fc := range rewindFields {
		class := make(map[string]string)
		for name, list := range map[string][]string{
			"rewound": fc.rewound, "hook": fc.hook, "wiring": fc.wiring, "scratch": fc.scratch,
		} {
			for _, f := range list {
				if prev, dup := class[f]; dup {
					t.Errorf("%v.%s is listed as %s and as %s", fc.of, f, prev, name)
				}
				class[f] = name
			}
		}
		for i := 0; i < fc.of.NumField(); i++ {
			f := fc.of.Field(i).Name
			if _, ok := class[f]; !ok {
				t.Errorf("%v.%s is in no list: decide whether save and load must handle it (rewound) or why they need not", fc.of, f)
			}
			delete(class, f)
		}
		var stale []string
		for f := range class {
			stale = append(stale, f)
		}
		sort.Strings(stale)
		for _, f := range stale {
			t.Errorf("%v has no field %s; drop it from the %s list", fc.of, f, class[f])
		}
	}
}

// rewoundApart says, for every field rewindFields calls rewound, whether
// two instances of one scenario stand apart in it: the machine by its
// full-walk fingerprint (internal/coherence holds its own fields to a
// replay one by one).
func rewoundApart(a, b *instance) map[string]bool {
	steps := func(tag any) (uint64, bool) {
		st, ok := tag.(stepTag)
		if !ok {
			return 0, false
		}
		m := fphash.New()
		m.Word(uint64(st.proc))
		m.Word(uint64(st.step))
		return m.Sum(), true
	}
	apart := map[string]bool{
		"mc.driver.pc":        fmt.Sprint(a.pc) != fmt.Sprint(b.pc),
		"mc.driver.completed": a.completed != b.completed,
		"mc.driver.wit":       fmt.Sprint(a.wit.hist) != fmt.Sprint(b.wit.hist),
		"mc.driver.failure":   a.failure != b.failure,
		"mc.instance.sys":     a.sys.Fingerprint(nil, steps) != b.sys.Fingerprint(nil, steps),
		"mc.instance.held":    fmt.Sprint(a.held) != fmt.Sprint(b.held),
	}
	for _, f := range rewindFields[0].rewound {
		apart["mc.instance.driver"] = apart["mc.instance.driver"] || apart["mc.driver."+f]
	}
	return apart
}

// driverUnmoved are the rewound fields the sweep below cannot move, with
// the reason.
var driverUnmoved = map[string]string{
	"mc.driver.failure": "set only when an operation completes with its line absent, which no correct machine does",
}

// recChooser picks at random, after following a script, and records every
// pick.
type recChooser struct {
	rng           *rand.Rand
	script, picks []int
}

func (c *recChooser) Choose(_ sim.ChoicePoint, cands []sim.Candidate) int {
	pick := c.rng.Intn(len(cands))
	if len(c.picks) < len(c.script) {
		pick = c.script[len(c.picks)]
	}
	c.picks = append(c.picks, pick)
	return pick
}

// randomScenario draws a 3×3 scenario of the kind internal/coherence's
// TestLoadEqualsReplay runs: data operations over five lines, and acquire
// … release sections on two lock lines, on about half the processors.
func randomScenario(rng *rand.Rand, mutate func(*Scenario)) Scenario {
	sc := Scenario{Name: "fields", N: 3}
	mutate(&sc)
	data := []OpKind{OpRead, OpWrite, OpAllocate, OpWriteBack}
	for len(sc.Procs) < 2 {
		sc.Procs = nil
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				if rng.Intn(2) == 0 {
					continue
				}
				var ops []ProcOp
				for len(ops) < 6 {
					if rng.Intn(4) == 0 {
						lock := uint64(6 + rng.Intn(2))
						ops = append(ops, ProcOp{Kind: []OpKind{OpTAS, OpSync}[rng.Intn(2)], Line: lock},
							ProcOp{Kind: data[rng.Intn(2)], Line: uint64(rng.Intn(5))},
							ProcOp{Kind: OpUnlock, Line: lock})
						continue
					}
					ops = append(ops, ProcOp{Kind: data[rng.Intn(len(data))], Line: uint64(rng.Intn(5))})
				}
				sc.Procs = append(sc.Procs, Proc{At: topology.Coord{Row: r, Col: c}, Ops: ops})
			}
		}
	}
	sc.FillDefaults()
	return sc
}

// TestLoadEqualsReplayForTheDriver is internal/coherence's field-by-field
// Load ≡ replay check for the fields of driver and instance: at random
// kernel-step boundaries an instance is saved, run on into a different
// future — fingerprinted at every step, as the explorer does — and
// loaded, and every rewound field must then equal that of an instance
// replayed to the boundary, and must have differed from it, before the
// load, at one boundary of the sweep at least. The fingerprint cache,
// kept across the load, must give the replay's fingerprint.
func TestLoadEqualsReplayForTheDriver(t *testing.T) {
	configs := []func(*Scenario){
		func(*Scenario) {},
		func(sc *Scenario) {
			sc.CacheLines, sc.CacheAssoc, sc.MLTEntries, sc.MLTAssoc, sc.Snarf = 4, 2, 4, 2, true
		},
		func(sc *Scenario) { sc.Snarf = true },
	}
	var opts Options
	opts.fillDefaults()
	moved := map[string]bool{}
	boundaries := 0
	for ci, mutate := range configs {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
			sc := randomScenario(rng, mutate)
			sh := newShared(&sc, &opts)
			// run builds an instance and takes it steps into the execution
			// the script leads, fingerprinting as it goes.
			run := func(script []int, steps int) (*instance, *recChooser) {
				in := newInstance(&sc, sh)
				ch := &recChooser{rng: rand.New(rand.NewSource(seed)), script: script}
				in.enableMC(ch)
				for i := 0; i < steps && in.k.Step(); i++ {
					in.canonicalFP()
				}
				return in, ch
			}
			in, ch := run(nil, 0)
			var st execState
			for steps := 0; in.k.Pending() > 0 && steps < 400; steps++ {
				if rng.Intn(8) == 0 {
					where := fmt.Sprintf("config %d seed %d boundary at step %d", ci, seed, steps)
					boundaries++
					in.save(&st)
					picks := len(ch.picks)
					for i := 1 + rng.Intn(40); i > 0 && in.k.Step(); i-- {
						in.canonicalFP()
					}
					ref, refCh := run(ch.picks[:picks:picks], steps)
					if len(refCh.picks) != picks {
						t.Fatalf("%s: the replay made %d choices, the original %d", where, len(refCh.picks), picks)
					}
					for name, apart := range rewoundApart(in, ref) {
						moved[name] = moved[name] || apart
					}
					in.load(&st)
					ch.picks = ch.picks[:picks]
					for name, apart := range rewoundApart(in, ref) {
						if apart {
							t.Errorf("%s: load left %s apart from the replay", where, name)
						}
					}
					if got, want := in.canonicalFP(), ref.canonicalFP(); got != want {
						t.Errorf("%s: the kept fingerprint cache gives %#x after the load, the replay %#x", where, got, want)
					}
					if t.Failed() {
						return
					}
				}
				in.k.Step()
				in.canonicalFP()
			}
		}
	}
	if boundaries < 50 {
		t.Fatalf("%d boundaries", boundaries)
	}
	t.Logf("%d boundaries", boundaries)
	for _, fc := range rewindFields {
		for _, f := range fc.rewound {
			switch name := fc.of.String() + "." + f; {
			case !moved[name] && driverUnmoved[name] == "":
				t.Errorf("no future moved %s (or rewoundApart does not compare it): a save or load that forgot it would pass", name)
			case moved[name] && driverUnmoved[name] != "":
				t.Errorf("%s moved after all; drop it from driverUnmoved", name)
			}
		}
	}
}
