package coherence

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/fphash"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// The rewind tests drive the machine the way the model checker does:
// bounded per-processor programs issued by a driver whose closures capture
// only the driver itself and immutable values, so the driver can be saved
// and loaded beside the machine; the untimed interpretation (every
// pending event a candidate, grants deferred); every ordering decided by
// a seeded chooser that records its picks, so a second machine can be
// replayed to any point of the first one's run.

const (
	rwRead = iota
	rwWrite
	rwAllocate
	rwWriteBack
	rwTAS
	rwSync
	rwUnlock
)

type rwOp struct {
	kind int
	line cache.Line
}

type rwProc struct {
	at  topology.Coord
	ops []rwOp
}

// rwTag tags the driver's own kernel events.
type rwTag struct{ proc, step int }

// rwState is the driver's share of an execution.
type rwState struct {
	pc   []int
	held [][]cache.Line
	seen []uint64 // running hash of the values each processor observed
}

func (st *rwState) copyFrom(src *rwState) {
	st.pc = append(st.pc[:0], src.pc...)
	st.seen = append(st.seen[:0], src.seen...)
	if st.held == nil {
		st.held = make([][]cache.Line, len(src.held))
	}
	for p, h := range src.held {
		st.held[p] = append(st.held[p][:0], h...)
	}
}

// rwChooser picks at random, after following a script, and records every
// pick. hook, when set, runs at a scheduling choice point before the pick
// is made: the kernel has touched nothing yet, so the machine is still at
// the step boundary (where internal/mc saves).
type rwChooser struct {
	rng    splitmix64
	script []int
	picks  []int
	hook   func()
}

func (c *rwChooser) Choose(cp sim.ChoicePoint, cands []sim.Candidate) int {
	if h := c.hook; h != nil && cp.Kind == sim.Sched {
		c.hook = nil
		h()
	}
	pick := c.rng.intn(len(cands))
	if len(c.picks) < len(c.script) {
		pick = c.script[len(c.picks)]
	}
	c.picks = append(c.picks, pick)
	return pick
}

// rwMachine is one machine with its driver, chooser and fingerprint cache.
type rwMachine struct {
	k     *sim.Kernel
	sys   *System
	fpc   *FPCache
	ch    *rwChooser
	procs []rwProc
	rwState
	issueFn []func()
	ident   []int
}

func newRWMachine(t *testing.T, n int, mutate func(*Config), procs []rwProc, seed uint64) *rwMachine {
	k, sys := testSystem(t, n, mutate)
	m := &rwMachine{k: k, sys: sys, fpc: NewFPCache(sys), ch: &rwChooser{rng: splitmix64(seed)}, procs: procs}
	m.pc, m.seen, m.held = make([]int, len(procs)), make([]uint64, len(procs)), make([][]cache.Line, len(procs))
	for i := 0; i < n; i++ {
		m.ident = append(m.ident, i)
	}
	sys.EnableModelChecking(m.ch)
	for p := range procs {
		p := p
		m.issueFn = append(m.issueFn, func() { m.issue(p) })
		k.AtTagged(0, rwTag{p, 0}, m.issueFn[p])
	}
	return m
}

func (m *rwMachine) issue(p int) {
	pr, step := m.procs[p], m.pc[p]
	op, nd := pr.ops[step], m.sys.Node(pr.at)
	val := uint64(1000 + 100*p + step)
	next := func() {
		m.pc[p]++
		if m.pc[p] < len(pr.ops) {
			m.k.AfterTagged(0, rwTag{p, m.pc[p]}, m.issueFn[p])
		}
	}
	observe := func(v uint64) {
		h := fphash.New()
		h.Word(m.seen[p])
		h.Word(v)
		m.seen[p] = h.Sum()
	}
	holds := func() int {
		for i, l := range m.held[p] {
			if l == op.line {
				return i
			}
		}
		return -1
	}
	acquired := func(r Result) {
		if r.Acquired && holds() < 0 {
			m.held[p] = append(m.held[p], op.line)
		}
		observe(map[bool]uint64{false: 0, true: 1}[r.Acquired] + map[bool]uint64{false: 0, true: 2}[r.MustSpin])
		next()
	}
	switch op.kind {
	case rwRead:
		nd.Read(op.line, func(Result) {
			if e := nd.CacheEntry(op.line); e != nil {
				observe(e.Data[2])
			}
			next()
		})
	case rwWrite:
		nd.Write(op.line, func(Result) {
			if e := nd.CacheEntry(op.line); e != nil {
				observe(e.Data[2])
				e.Data[2] = val
			}
			next()
		})
	case rwAllocate:
		nd.Allocate(op.line, func(Result) {
			if e := nd.CacheEntry(op.line); e != nil {
				e.Data[2] = val
			}
			next()
		})
	case rwWriteBack:
		nd.WriteBack(op.line, func(r Result) {
			observe(uint64(r.Trace.Ops()))
			next()
		})
	case rwTAS:
		nd.TestAndSet(op.line, acquired)
	case rwSync:
		nd.SyncAcquire(op.line, acquired)
	case rwUnlock:
		i := holds()
		if i < 0 {
			next()
			return
		}
		m.held[p] = append(m.held[p][:i], m.held[p][i+1:]...)
		if nd.SyncRelease(op.line) {
			next()
			return
		}
		nd.Write(op.line, func(Result) {
			if e := nd.CacheEntry(op.line); e != nil {
				e.Data[LockWord] = 0
			}
			next()
		})
	}
}

// extra describes the driver's events to both fingerprint paths.
func (m *rwMachine) extra(tag any) (uint64, bool) {
	t, ok := tag.(rwTag)
	if !ok {
		return 0, false
	}
	h := fphash.New()
	h.Word(uint64(t.proc))
	h.Word(uint64(t.step))
	return h.Sum(), true
}

func (m *rwMachine) extraRC(tag any) (row, col int, rest uint64, ok bool) {
	t, ok := tag.(rwTag)
	if !ok {
		return 0, 0, 0, false
	}
	at := m.procs[t.proc].at
	return at.Row, at.Col, uint64(t.step), true
}

// incrementalFP is the FPCache fingerprint under the identity relabeling,
// from the machine's own cache or from a new one.
func (m *rwMachine) incrementalFP(f *FPCache) uint64 {
	f.BeginPoint(m.extraRC)
	return f.FPRC(m.ident, m.ident, m.ident, m.ident)
}

// rwBoundary is a whole saved execution.
type rwBoundary struct {
	sys   Saved
	drv   rwState
	steps int // kernel steps taken before it
	picks int // choices made before it
	rng   splitmix64
}

func (m *rwMachine) save(b *rwBoundary, steps int) {
	m.sys.Save(&b.sys)
	b.drv.copyFrom(&m.rwState)
	b.steps, b.picks, b.rng = steps, len(m.ch.picks), m.ch.rng
}

func (m *rwMachine) load(b *rwBoundary) {
	m.sys.Load(&b.sys)
	m.rwState.copyFrom(&b.drv)
	m.ch.picks, m.ch.rng = m.ch.picks[:b.picks], b.rng
}

var executedRE = regexp.MustCompile(`executed=\d+ `)

// sameState compares everything observable about two executions at rest
// between steps — except Kernel.Executed, which is host work and restarts
// at Load.
func sameState(t *testing.T, where string, a, b *rwMachine) {
	t.Helper()
	if got, want := a.sys.Fingerprint(nil, a.extra), b.sys.Fingerprint(nil, b.extra); got != want {
		t.Fatalf("%s: fingerprint %#x on the loaded machine, %#x on the replayed one", where, got, want)
	}
	if got, want := fmt.Sprint(CheckInvariants(a.sys)), fmt.Sprint(CheckInvariants(b.sys)); got != want {
		t.Fatalf("%s: CheckInvariants\n%s\non the loaded machine,\n%s\non the replayed one", where, got, want)
	}
	got, want := executedRE.ReplaceAllString(publicState(a.sys), ""), executedRE.ReplaceAllString(publicState(b.sys), "")
	if got != want {
		t.Fatalf("%s: loaded machine\n%s\nreplayed machine\n%s", where, got, want)
	}
	if fmt.Sprint(a.rwState) != fmt.Sprint(b.rwState) {
		t.Fatalf("%s: driver %+v on the loaded machine, %+v on the replayed one", where, a.rwState, b.rwState)
	}
}

// publicState renders everything a caller can read off a machine that is
// not protocol state proper (the fingerprint covers that): clocks, every
// public counter, generation and queue gauge, and whether hooks are set.
func publicState(s *System) string {
	var b strings.Builder
	k := s.Kernel()
	fmt.Fprintf(&b, "kernel now=%v executed=%d pending=%d\n", k.Now(), k.Executed(), k.Pending())
	fmt.Fprintf(&b, "txns=%v strays=%d dropped=%d reissues=%d\n", s.Stats(), s.StrayReplies(), s.DroppedOps(), s.Reissues())
	fmt.Fprintf(&b, "hooks oplog=%v fault=%v suppress=%v observer=%v unpoisoned=%v inclusions=%d\n",
		s.OpLog != nil, s.Fault != nil, s.SuppressSignal != nil, s.Observer != nil, s.DisableStaleReplyPoisoning, len(s.inclusions))
	n := s.Config().N
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			nd := s.Node(topology.Coord{Row: r, Col: c})
			fmt.Fprintf(&b, "node(%d,%d) %+v gen=%d busy=%v hook=%v cache=%+v/%d\n", r, c,
				nd.Stats(), nd.gen, nd.Busy(), nd.OnInvalidate != nil,
				nd.Cache().Stats(), nd.Cache().Len())
		}
	}
	for c := 0; c < n; c++ {
		fmt.Fprintf(&b, "mlt%d %+v/%d\n", c, s.mlt.Stats(c), len(s.mlt.AppendLines(c, nil)))
	}
	fmt.Fprintf(&b, "mlt gen=%d\n", s.mlt.Gen())
	for c := 0; c < n; c++ {
		st := s.MemoryAt(c).Store()
		fmt.Fprintf(&b, "mem%d %+v invalid=%d\n", c, st.Stats(), st.InvalidLines())
	}
	for i := 0; i < n; i++ {
		for _, x := range []*bus.Bus{s.RowBus(i), s.ColBus(i)} {
			fmt.Fprintf(&b, "%s gen=%d busy=%v %+v\n", x.Name(), x.Gen(), x.Busy(), x.Stats())
		}
	}
	return b.String()
}

// logOps installs an OpLog that records every bus operation with its
// issue time and returns the record.
func logOps(s *System) *[]string {
	var log []string
	s.OpLog = func(dim Dim, issuer topology.Coord, op *Op) {
		log = append(log, fmt.Sprintf("%v %v %v %v", s.Kernel().Now(), dim, issuer, op))
	}
	return &log
}

// rwPrograms draws one bounded program per participating processor: data
// operations over five lines, and acquire … release sections on two lock
// lines (a try that fails leaves its release a no-op, as in internal/mc).
func rwPrograms(rng *splitmix64, n int) []rwProc {
	var procs []rwProc
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if rng.intn(2) == 0 {
				continue
			}
			var ops []rwOp
			for len(ops) < 8 {
				if rng.intn(4) == 0 {
					lock := cache.Line(6 + rng.intn(2))
					ops = append(ops, rwOp{rwTAS + rng.intn(2), lock},
						rwOp{rwRead + rng.intn(2), cache.Line(rng.intn(5))},
						rwOp{rwUnlock, lock})
					continue
				}
				ops = append(ops, rwOp{rwRead + rng.intn(4), cache.Line(rng.intn(5))})
			}
			procs = append(procs, rwProc{at(r, c), ops})
		}
	}
	if len(procs) < 2 {
		return rwPrograms(rng, n)
	}
	return procs
}

// TestLoadEqualsReplay is the Load ≡ replay differential. One machine
// runs a random program under random scheduling; at random kernel-step
// boundaries — between steps, or inside the chooser at the step's
// scheduling choice, where the model checker saves — it is saved, run on
// into a different future, and loaded. It must then be indistinguishable
// from a second machine replayed from its initial state to the same
// boundary: same fingerprint, same invariant report, every public counter
// and Stats equal, and over a common continuation the same bus
// operations at the same times, the same fingerprints step for step, the
// FPCache kept across the Load agreeing with a new one. Loading the same
// save again must put the run back on the path it would have taken
// unobserved.
//
// Field by field too: every field rewindFields calls rewound, of every
// component, must equal the replay's after the Load — a field Save or Load
// forgot is named — and must have differed from it, before the Load, at
// one boundary of the sweep at least, unless unmoved says why it cannot.
func TestLoadEqualsReplay(t *testing.T) {
	configs := map[string]func(*Config){
		"unbounded": func(*Config) {},
		"bounded-snarf": func(c *Config) {
			c.CacheLines, c.CacheAssoc = 4, 2
			c.MLTEntries, c.MLTAssoc = 4, 2
			c.Snarf = true
		},
		"unbounded-snarf-rr": func(c *Config) { c.Snarf, c.Arbitration = true, 1 },
	}
	fields, moved, ran := newRewoundFields(), map[string]bool{}, 0
	for name, mutate := range configs {
		mutate := mutate
		t.Run(name, func(t *testing.T) {
			ran++
			var boundaries, inChoose, pending, writebacks, purges, liveOps, rewired, retraced int
			for seed := uint64(1); seed <= 6; seed++ {
				rng := splitmix64(seed * 977)
				procs := rwPrograms(&rng, 3)
				m := newRWMachine(t, 3, mutate, procs, seed)
				var b rwBoundary
				var live []*Op
				steps := 0
				// save takes the boundary and notes what it caught in flight.
				save := func() {
					m.save(&b, steps)
					boundaries++
					live = live[:0]
					m.sys.forEachLiveOp(func(op *Op) { live = append(live, op) })
					liveOps += len(live)
					for _, row := range m.sys.nodes {
						for _, nd := range row {
							if nd.pend != nil {
								pending++
							}
							if nd.wbCont != nil {
								writebacks++
							}
							purges += nd.purgedAt.Len()
						}
					}
				}
				// verify abandons the machine to a different future, loads
				// the boundary, checks the loaded machine against a replayed
				// one, and leaves it loaded once more, back on its path.
				verify := func() {
					where := fmt.Sprintf("seed %d boundary at step %d", seed, b.steps)
					traces := append([]traceSaved(nil), b.sys.traces...)
					// Fingerprinted as it goes, so that the FPCache fills
					// with the abandoned future's labels.
					m.ch.rng = splitmix64(seed<<32 | uint64(boundaries))
					for i := 1 + rng.intn(60); i > 0 && m.k.Step(); i-- {
						m.incrementalFP(m.fpc)
					}
					for _, op := range live {
						if op.modified || op.servers != 0 || op.mltHad || op.overflow {
							rewired++
						}
					}
					for _, tr := range traces {
						if *tr.tr != tr.val {
							retraced++
						}
					}
					ref := newRWMachine(t, 3, mutate, procs, 0)
					ref.ch.script = append([]int(nil), m.ch.picks[:b.picks]...)
					for i := 0; i < b.steps; i++ {
						ref.k.Step()
					}
					fields.compare(addressable(m.sys), addressable(ref.sys), func(name, d string) {
						moved[name] = moved[name] || d != ""
					})

					m.load(&b)
					if m.k.Executed() != 0 {
						t.Fatalf("%s: Executed %d after Load", where, m.k.Executed())
					}
					for _, op := range live {
						if op.modified || op.claimant != (topology.Coord{}) || op.suppressed ||
							op.servers != 0 || op.mltHad || op.overflow || op.victim != 0 {
							t.Fatalf("%s: %v came back from the abandoned future with probe wires or a table outcome asserted", where, op)
						}
					}
					if len(ref.ch.picks) != b.picks {
						t.Fatalf("%s: the replay made %d choices, the original %d", where, len(ref.ch.picks), b.picks)
					}
					apart := map[string]string{} // field → where, first seen
					fields.compare(addressable(m.sys), addressable(ref.sys), func(name, d string) {
						if d != "" && apart[name] == "" {
							apart[name] = d
						}
					})
					if len(apart) > 0 {
						t.Fatalf("%s: Load left fields apart from the replay: %v", where, apart)
					}
					sameState(t, where, m, ref)

					cont := splitmix64(seed<<40 | uint64(boundaries))
					m.ch.rng, ref.ch.rng = cont, cont
					log, refLog := logOps(m.sys), logOps(ref.sys)
					for i := 0; i < 120; i++ {
						more, refMore := m.k.Step(), ref.k.Step()
						if more != refMore {
							t.Fatalf("%s: one machine drained %d steps on, the other did not", where, i)
						}
						if !more {
							break
						}
						if got, want := m.sys.Fingerprint(nil, m.extra), ref.sys.Fingerprint(nil, ref.extra); got != want {
							t.Fatalf("%s: fingerprints part %d steps on", where, i)
						}
						if got, want := m.incrementalFP(m.fpc), m.incrementalFP(NewFPCache(m.sys)); got != want {
							t.Fatalf("%s: %d steps on, the kept FPCache says %#x, a new one %#x", where, i, got, want)
						}
					}
					if !reflect.DeepEqual(*log, *refLog) {
						t.Fatalf("%s: the continuation's bus operations differ (%d on the loaded machine, %d on the replayed one)",
							where, len(*log), len(*refLog))
					}
					sameState(t, where+", after the continuation", m, ref)
					m.sys.OpLog = nil

					m.load(&b)
				}
				for m.k.Pending() > 0 && steps < 1500 {
					switch rng.intn(8) {
					case 0:
						save()
						verify()
					case 1:
						// Inside the chooser, if this step has a scheduling
						// choice: the step itself then opens the abandoned
						// future, and is taken again after verify's Load.
						saved := false
						m.ch.hook = func() { save(); saved = true }
						m.k.Step()
						if m.ch.hook = nil; saved {
							inChoose++
							verify()
							continue
						}
						steps++
						m.incrementalFP(m.fpc)
						continue
					}
					m.k.Step()
					steps++
					m.incrementalFP(m.fpc)
				}
				// The run as a whole must not have noticed: a machine that
				// was never saved or loaded ends in the same state.
				plain := newRWMachine(t, 3, mutate, procs, seed)
				for i := 0; i < steps; i++ {
					plain.k.Step()
				}
				sameState(t, fmt.Sprintf("seed %d after %d steps", seed, steps), m, plain)
			}
			if boundaries < 100 || inChoose == 0 {
				t.Fatalf("%d boundaries, %d of them inside the chooser", boundaries, inChoose)
			}
			if pending == 0 || liveOps == 0 || rewired == 0 || retraced == 0 {
				t.Fatalf("the boundaries caught %d transactions and %d operations in flight; the abandoned futures asserted wires on %d of those operations and moved %d saved traces",
					pending, liveOps, rewired, retraced)
			}
			if name == "bounded-snarf" && (writebacks == 0 || purges == 0) {
				t.Fatalf("no boundary caught a victim writeback (%d) or a purge record (%d)", writebacks, purges)
			}
			t.Logf("%d boundaries (%d in the chooser): %d transactions, %d writebacks, %d operations in flight; %d operations rewired, %d traces moved",
				boundaries, inChoose, pending, writebacks, liveOps, rewired, retraced)
		})
	}
	if ran < len(configs) || t.Failed() {
		return // a filtered or failed sweep need not have moved everything
	}
	for _, fc := range rewindFields {
		for _, f := range fc.rewound {
			switch name := fc.of.String() + "." + f; {
			case !moved[name] && unmoved[name] == "":
				t.Errorf("no future moved %s: a Save or Load that forgot it would pass", name)
			case moved[name] && unmoved[name] != "":
				t.Errorf("%s moved after all; drop it from unmoved", name)
			}
		}
	}
}

// TestResetEqualsFresh: the constructors define the initial state, and
// the explorer's reset is a Load of the boundary saved as NewSystem built
// the machine. A machine stopped at many points in the middle of a random
// program — operations queued, buses busy, transactions and writebacks
// outstanding — and reset that way must be indistinguishable from a
// machine just built with the same hooks (Load leaves them): at rest, and
// step for step over a second program.
func TestResetEqualsFresh(t *testing.T) {
	configs := map[string]func(*Config){
		"unbounded": func(*Config) {},
		"bounded-snarf": func(c *Config) {
			c.CacheLines, c.CacheAssoc = 4, 2
			c.MLTEntries, c.MLTAssoc = 2, 1
			c.Snarf = true
		},
		"round-robin": func(c *Config) { c.Arbitration = bus.RoundRobin },
	}
	hooks := func(s *System) {
		s.Observer = func(SnoopEvent) {}
		s.Fault = func(Dim, topology.Coord, *Op) bool { return false }
		s.SuppressSignal = func(topology.Coord, *Op) bool { return false }
		s.DisableStaleReplyPoisoning = true
		s.Node(at(0, 0)).OnInvalidate = func(cache.Line) {}
		s.RegisterInclusion("test", at(0, 0), func() []cache.Line { return nil })
		logOps(s)
	}
	for name, mutate := range configs {
		mutate := mutate
		t.Run(name, func(t *testing.T) {
			// What the stops caught in flight, over the whole sweep: the
			// differential only means something where there was state to
			// rewind.
			var pending, writebacks, busyBuses, purges int
			for seed := uint64(1); seed <= 3; seed++ {
				for stop := 10; stop <= 640; stop += 10 {
					k, used := testSystem(t, 3, mutate)
					hooks(used)
					var rest Saved
					used.Save(&rest)
					launchRandomWorkload(t, k, used, seed, 25, 12)
					for i := 0; i < stop && k.Step(); i++ {
					}
					if k.Pending() == 0 {
						t.Fatalf("seed %d: the first program drained within %d steps", seed, stop)
					}
					for i := 0; i < 3; i++ {
						for _, nd := range used.nodes[i] {
							if nd.pend != nil {
								pending++
							}
							if nd.wbCont != nil {
								writebacks++
							}
							purges += nd.purgedAt.Len()
						}
						if used.rows[i].Busy() || used.cols[i].Busy() {
							busyBuses++
						}
					}
					used.Load(&rest)

					_, fresh := testSystem(t, 3, mutate)
					hooks(fresh)
					if got, want := publicState(used), publicState(fresh); got != want {
						t.Fatalf("seed %d stop %d: loaded machine differs from a new one:\n%s\nnew:\n%s", seed, stop, got, want)
					}
					if got, want := used.Fingerprint(nil, nil), fresh.Fingerprint(nil, nil); got != want {
						t.Fatalf("seed %d stop %d: fingerprint after Load %#x, of a new machine %#x", seed, stop, got, want)
					}
					checkQuiet(t, used)
					if stop%160 != 0 {
						continue // the second program is the expensive half
					}

					usedLog, freshLog := logOps(used), logOps(fresh)
					launchRandomWorkload(t, used.Kernel(), used, seed+100, 25, 12)
					launchRandomWorkload(t, fresh.Kernel(), fresh, seed+100, 25, 12)
					for step := 0; ; step++ {
						more, freshMore := used.Kernel().Step(), fresh.Kernel().Step()
						if more != freshMore {
							t.Fatalf("seed %d stop %d: one machine drained at step %d, the other did not", seed, stop, step)
						}
						if !more {
							break
						}
						if got, want := used.Fingerprint(nil, nil), fresh.Fingerprint(nil, nil); got != want {
							t.Fatalf("seed %d stop %d: fingerprints part at step %d of the second program", seed, stop, step)
						}
					}
					if !reflect.DeepEqual(*usedLog, *freshLog) {
						t.Fatalf("seed %d stop %d: second program's bus operations differ (%d on the loaded machine, %d on the new one)",
							seed, stop, len(*usedLog), len(*freshLog))
					}
					if len(*usedLog) == 0 {
						t.Fatal("second program issued no bus operations")
					}
					if got, want := publicState(used), publicState(fresh); got != want {
						t.Fatalf("seed %d stop %d: after the second program:\n%s\nnew:\n%s", seed, stop, got, want)
					}
					checkQuiet(t, used)
				}
			}
			if pending == 0 || busyBuses == 0 {
				t.Fatalf("no stop caught a transaction (%d) or a bus operation (%d) in flight", pending, busyBuses)
			}
			if name == "bounded-snarf" && (writebacks == 0 || purges == 0) {
				t.Fatalf("no stop caught a victim writeback (%d) or a purge record (%d) to rewind", writebacks, purges)
			}
		})
	}
}

// TestLoadAtRestEqualsReset: the explorer resets by loading one boundary,
// saved at rest, before every run, so the boundary must survive being
// loaded and what ran before must not leak through it. A machine loaded
// once after a run must be indistinguishable from one reset twice, after
// two other runs: at rest, step for step over a second program, and
// loaded back to rest after it.
func TestLoadAtRestEqualsReset(t *testing.T) {
	bounded := func(c *Config) {
		c.CacheLines, c.CacheAssoc = 4, 2
		c.MLTEntries, c.MLTAssoc = 2, 1
		c.Snarf = true
	}
	for _, mutate := range []func(*Config){func(*Config) {}, bounded} {
		for stop := 40; stop <= 640; stop += 120 {
			k, loaded := testSystem(t, 3, mutate)
			var rest Saved
			loaded.Save(&rest)
			launchRandomWorkload(t, k, loaded, 7, 25, 12)
			for i := 0; i < stop && k.Step(); i++ {
			}
			if k.Pending() == 0 {
				t.Fatalf("the first program drained within %d steps", stop)
			}
			loaded.Load(&rest)

			rk, reset := testSystem(t, 3, mutate)
			var resetRest Saved
			reset.Save(&resetRest)
			for i, seed := range []uint64{7, 9} {
				launchRandomWorkload(t, rk, reset, seed, 25, 12)
				for j := 0; j < stop/(2+i) && rk.Step(); j++ {
				}
				if rk.Pending() == 0 {
					t.Fatalf("program %d drained within %d steps", seed, stop/(2+i))
				}
				reset.Load(&resetRest)
			}

			same := func(where string) {
				t.Helper()
				if got, want := publicState(loaded), publicState(reset); got != want {
					t.Fatalf("stop %d %s: loaded machine\n%s\nreset machine\n%s", stop, where, got, want)
				}
				if got, want := loaded.Fingerprint(nil, nil), reset.Fingerprint(nil, nil); got != want {
					t.Fatalf("stop %d %s: fingerprint %#x loaded, %#x reset", stop, where, got, want)
				}
			}
			same("at rest")
			checkQuiet(t, loaded)
			log, resetLog := logOps(loaded), logOps(reset)
			launchRandomWorkload(t, k, loaded, 8, 25, 12)
			launchRandomWorkload(t, rk, reset, 8, 25, 12)
			for k.Step() {
				if !rk.Step() {
					t.Fatalf("stop %d: the reset machine drained first", stop)
				}
			}
			if rk.Pending() != 0 {
				t.Fatalf("stop %d: the loaded machine drained first", stop)
			}
			if !reflect.DeepEqual(*log, *resetLog) || len(*log) == 0 {
				t.Fatalf("stop %d: second program's bus operations differ (%d loaded, %d reset)", stop, len(*log), len(*resetLog))
			}
			same("after the second program")
			loaded.Load(&rest)
			reset.Load(&resetRest)
			same("loaded back to rest")
		}
	}
}

// TestLoadRestoresStrays: the stray-reply count carries a verdict (the
// model checker fails a run on the first one), so it is state. No correct
// run produces one; a reply nobody waits for is delivered by hand.
func TestLoadRestoresStrays(t *testing.T) {
	_, s := testSystem(t, 2)
	stray := func() { s.Node(at(0, 0)).complete(&Op{Txn: READ, Line: 3}, Result{}) }
	var one, none Saved
	s.Save(&none)
	stray()
	s.Save(&one)
	stray()
	if s.StrayReplies() != 2 {
		t.Fatalf("%d strays counted, want 2", s.StrayReplies())
	}
	s.Load(&one)
	if s.StrayReplies() != 1 {
		t.Fatalf("%d strays after Load, saved with 1", s.StrayReplies())
	}
	s.Load(&none)
	if s.StrayReplies() != 0 {
		t.Fatalf("%d strays after Load, saved with none", s.StrayReplies())
	}
}

// TestSaveLoadRefusals: a saved state holds the closures of the machine
// it was taken from, so loading it into another is refused.
func TestSaveLoadRefusals(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	_, a := testSystem(t, 2)
	_, b := testSystem(t, 2)
	var st Saved
	a.Save(&st)
	mustPanic("Load of a state another machine saved", func() { b.Load(&st) })
	mustPanic("Load of a state nothing saved", func() { b.Load(new(Saved)) })
}
