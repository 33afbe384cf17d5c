// The package participates in the explorer's determinism contract: no
// wall clock, no map-order dependence, no scheduling outside the chooser
// seam. multicube-vet enforces this (see internal/analysis).
//
//multicube:deterministic
package mc

import (
	"context"
	"errors"
	"fmt"

	"multicube/internal/coherence"
	"multicube/internal/sim"
	"multicube/internal/statespace"
)

// Violation is one safety failure, with the choice sequence that
// reproduces it from the initial state (replay with Replay).
type Violation struct {
	// Kind classifies the failure: "invariant", "sc" (per-address
	// coherence), "sc-total" (cross-address sequential consistency),
	// "deadlock", "livelock", "stray-reply", "protocol".
	Kind string
	Msg  string
	// Choices is the choice sequence reproducing the violation; all
	// choices beyond it default to 0.
	Choices []int
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%s violation: %s (choices %v)", v.Kind, v.Msg, v.Choices)
}

// Options bound an exploration.
type Options struct {
	// MaxStates caps the visited-state table (the -budget flag). Zero
	// means the default of 200000.
	MaxStates int
	// MaxDepth caps the choice-sequence length; zero means unlimited
	// (explore until the bounded programs drain).
	MaxDepth int
	// DepthStep enables iterative deepening: exploration restarts with
	// the depth bound raised by DepthStep until the space is exhausted,
	// a violation is found, or MaxDepth/MaxStates is hit. Zero disables
	// deepening (a single full-depth pass). Deepening finds violations
	// with near-minimal choice sequences.
	DepthStep int
	// MaxStepsPerRun guards against runaway executions; zero means the
	// default of 20000 kernel steps.
	MaxStepsPerRun int
	// MaxReissues bounds protocol retransmissions per execution; beyond
	// it the run is flagged as a possible livelock. Zero means the
	// default of 128. The protocol legitimately retries lost races, so
	// the bound is generous rather than tight.
	MaxReissues int
	// DisablePOR turns off the partial-order reduction entirely (both
	// the persistent-set eager-firing and the sleep sets), for
	// cross-checking that the reduction hides no violations.
	DisablePOR bool
	// DisableSleep turns off only the sleep-set half of the reduction,
	// leaving persistent-set eager-firing active.
	DisableSleep bool
	// NoMinimize skips counterexample shrinking.
	NoMinimize bool
	// SCNodes caps the per-execution sequential-consistency search (the
	// memmodel node budget) for scenarios with CheckSC set; zero means
	// memmodel's default. Executions whose search exhausts the budget
	// count as undecided (Result.SCUndecided) rather than failing.
	SCNodes int
	// CheckFP enables the fingerprint debug cross-check (the -checkfp
	// flag): at every choice point the canonical fingerprint is recomputed
	// from scratch with a fresh cache and compared against the incremental
	// value, and held in bijection with the full-walk reference over every
	// relabeling, panicking on any divergence. Slow; intended for tests
	// and debugging the fingerprint fast path.
	// Grid scenarios only: the single-bus baseline has one fingerprint,
	// a full walk, and nothing to cross-check it against.
	CheckFP bool
	// Ctx, when non-nil, cancels the exploration cooperatively: it is
	// consulted at frontier boundaries (between executions), so a cancel
	// returns within one bounded run — MaxStepsPerRun kernel steps.
	// A canceled exploration returns its partial statistics with
	// Result.Canceled set and never claims Exhausted.
	Ctx context.Context
	// Progress, when non-nil, is called at frontier boundaries with a
	// snapshot of the running search (states visited, runs completed,
	// current depth bound, frontier size), on the caller's goroutine.
	Progress func(Progress)
	// Instrument, when non-nil, is called on the grid machine once per
	// execution, before it runs, so harnesses can install passive
	// observation hooks — e.g. the conformance observer of
	// internal/protocol sets coherence.System.Observer. The machine is
	// freshly built, or rewound to its initial state or to a boundary an
	// earlier execution saved on it (hooks left as they were either way),
	// so a hook must be installed idempotently. Hooks
	// must be passive: installing one must not change protocol behavior,
	// fingerprints, or verdicts.
	// Single-bus scenarios are not instrumented (the seam is the grid
	// coherence machine).
	Instrument func(*coherence.System)

	// StoreDir, when non-empty, lets the visited-state table spill cold
	// shards to disk under the MemBudget cap (the -store flag). Empty
	// keeps the table memory-only.
	StoreDir string
	// MemBudget caps the visited table's estimated in-memory bytes;
	// beyond it shards spill to StoreDir. Zero means unbounded RAM.
	MemBudget int64
	// CheckpointDir enables periodic atomic checkpoints of the search
	// (frontier + visited shards + counters) under the given directory
	// (the -checkpoint flag). StoreDir defaults to CheckpointDir when
	// unset.
	CheckpointDir string
	// CheckpointEvery is the number of from-scratch executions between
	// checkpoints; zero means a default of 512. Ignored without
	// CheckpointDir.
	CheckpointEvery int
	// Resume continues from the newest checkpoint in CheckpointDir when
	// one matches this scenario and these options (the -resume flag). The
	// resumed search's verdict, state count, and counterexample are
	// byte-identical to an uninterrupted run's; Result.Resumed reports
	// whether a checkpoint was actually used, and a corrupt or mismatched
	// checkpoint falls back to a fresh run with Result.ResumeNote set.
	Resume bool

	// faultHook, when non-nil, is called at checkpoint boundaries with
	// "pre-checkpoint"/"post-checkpoint" so crash-injection tests can die
	// exactly there (by panicking or killing the process).
	faultHook func(string)
	// onNew, when non-nil, is called with the canonical fingerprint of
	// every state the search records for the first time, so tests can
	// compare the sets two searches reach.
	onNew func(fp uint64)
}

func (o *Options) fillDefaults() {
	if o.MaxStates == 0 {
		o.MaxStates = 200000
	}
	if o.MaxStepsPerRun == 0 {
		o.MaxStepsPerRun = 20000
	}
	if o.MaxReissues == 0 {
		o.MaxReissues = 128
	}
	if o.CheckpointDir != "" {
		if o.StoreDir == "" {
			o.StoreDir = o.CheckpointDir
		}
		if o.CheckpointEvery <= 0 {
			o.CheckpointEvery = 512
		}
	}
}

// Progress is a frontier-boundary snapshot of a running exploration,
// delivered through Options.Progress.
type Progress struct {
	// States is the number of distinct canonical states visited so far
	// in the current deepening iteration.
	States int
	// Runs is the number of executions (one per work item) completed so
	// far in the current pass.
	Runs int
	// Depth is the current choice-depth bound (0 = unlimited).
	Depth int
	// Frontier is the number of pending work items (unexplored branch
	// prefixes) queued at the snapshot.
	Frontier int
	// Cost is Result's host cost so far.
	Cost
}

// Cost is what a search cost this host, not what it found. It depends on
// which runs had a saved boundary to start from (a resumed search replays
// its checkpointed frontier from reset), on the memory budget and on the
// checkpoints, so two searches with identical results can differ in it,
// as they do in elapsed time. The counters are summed over the executions
// of the search; minimization replays run on machines of their own and
// are not included. All but PeakBoundaries and the disk tier's three are
// checkpointed and carried across a resume.
type Cost struct {
	// FPRecomputes and FPIncremental count component-hash rebuilds vs
	// cache hits in the incremental fingerprint path. Zero on the
	// single-bus baseline, which caches nothing.
	FPRecomputes  uint64
	FPIncremental uint64
	// FPPoints counts the choice points canonicalised and FPCombines the
	// relabelings combined for them: their ratio is what the canonical
	// form costs against the size of the relabeling table (1 when sorting
	// the row and column signatures always singles one out, the table size
	// when it never does). Zero on the single-bus baseline.
	FPPoints   uint64
	FPCombines uint64
	// Steps counts the kernel steps the search actually executed and
	// ReplaySteps those among them that only re-executed a work item's
	// prefix — taken before the prefix's last choice, in states the
	// spawning run had already checked and recorded. A run that starts
	// from a saved boundary executes neither the steps before it nor
	// counts them.
	Steps       uint64
	ReplaySteps uint64
	// Restores counts the runs that started from a boundary their spawning
	// run saved instead of from reset, and PeakBoundaries is the most saved
	// boundaries alive at once — a maximum over this process's part of the
	// search.
	Restores       uint64
	PeakBoundaries int
	// StoreHot, StoreDisk and StoreReads say which tier of the visited
	// store answered revisits: those the hot map answered, the run lookups
	// that passed a bloom filter, and the reads those made — one each, two
	// where a sleep set is stored (statespace.Store.Tier).
	StoreHot, StoreDisk, StoreReads uint64
	// Spills, Syncs and DiskBytes describe the visited store's disk tier:
	// shard evictions performed, runs this process's checkpoints fsynced
	// (zero without a checkpoint directory) and on-disk bytes (all zero
	// for a memory-only table).
	Spills, Syncs int
	DiskBytes     int64
}

// Result summarizes an exploration.
type Result struct {
	Scenario string
	// States is the number of distinct canonical states visited (in the
	// deepest iteration, under iterative deepening).
	States int
	// Runs is the number of executions, one per work item (deepest
	// iteration).
	Runs int
	// TotalRuns counts executions across all deepening iterations.
	TotalRuns int
	// Depth is the choice-depth bound of the final iteration.
	Depth int
	// Exhausted reports that every reachable interleaving within the
	// bounds was covered: no run was cut by the depth bound, the state
	// budget, or the step guard.
	Exhausted bool
	// BudgetHit reports the MaxStates budget stopped exploration.
	BudgetHit bool
	// Canceled reports that Options.Ctx was canceled before the bounded
	// space was covered: the Result describes a partial exploration
	// (never Exhausted) whose statistics stop at the cancellation point.
	Canceled bool
	// SCChecks counts completed executions whose history was checked for
	// full sequential consistency (scenarios with CheckSC set; zero
	// otherwise), and SCUndecided how many of those searches gave up on
	// the node budget. Minimization replays are not included.
	SCChecks    uint64
	SCUndecided uint64
	// SCVerdict summarizes the cross-address checks: "" when the scenario
	// does not request them, else "ok", "undecided" (some search hit the
	// node budget), or "violation" (the reported Violation is "sc-total").
	SCVerdict string
	// Resumed reports the search continued from an on-disk checkpoint
	// (Options.Resume found a matching one). Every other field of a
	// resumed Result outside Cost is byte-identical to an uninterrupted
	// run's.
	Resumed bool
	// ResumeNote explains why a requested resume fell back to a fresh
	// search (corrupt or mismatched checkpoint); empty otherwise.
	ResumeNote string
	Violation  *Violation
	// Cost is what the search cost this host.
	Cost
}

// checker runs executions of a scenario on some machine — the Multicube
// (instance) or the single-bus baseline (sbInstance) — one at a time:
// newChecker returns it at the start of the first, reset starts the next
// from the initial state (a rewinder can also start it elsewhere).
// Everything the explorer needs is behind this seam, so the same search,
// reduction, witness, and replay machinery checks both.
type checker interface {
	// reset abandons the execution in progress and starts another from
	// the scenario's initial state.
	reset()
	kernel() *sim.Kernel
	enableMC(ch sim.Chooser)
	stepCheck(maxReissues int) *Violation
	quiescenceCheck() *Violation
	canonicalFP() uint64
	// classify describes a kernel event tag to the reduction.
	classify(tag any) tagClass
	// grantClass describes one bus-arbitration candidate (the packet
	// that would be granted) on the named bus.
	grantClass(busName string, tag any) tagClass
	// fpStats reports this execution's fingerprint cost, the FP
	// counters of a Cost; zero where nothing is cached or canonicalised
	// by sorting.
	fpStats() Cost
	// scStats reports this execution's sequential-consistency checks and
	// how many were cut by the node budget (zero unless Scenario.CheckSC).
	scStats() (checks, undecided uint64)
}

// rewinder is a checker whose execution can be saved at a kernel-step
// boundary and resumed from there in place of reset and replay. The grid
// instance is one; the single-bus baseline, which has no Save or Load,
// is not, and keeps rebuilding and replaying.
type rewinder interface {
	save(st *execState)
	load(st *execState)
}

func newChecker(sc *Scenario, sh *shared) checker {
	if sc.SingleBus {
		return newSBInstance(sc, sh)
	}
	return newInstance(sc, sh)
}

// take records one resolved choice point. Beyond the prefix, under the
// sleep-set reduction, it also records the candidates' classes and the
// sleep set in force, which the spawner needs to seed sibling branches.
// cands is a piece of the chooser's per-run arena, valid like the take
// itself until the explorer's next run; sleepAt is a kept set, which
// children may hand on to a work item.
type take struct {
	pick    int
	n       int
	cands   []tagClass
	sleepAt sleepSet
}

// leavesSibling reports whether children will spawn a branch at this
// choice point: an alternative to the pick that is not slept (any
// alternative, with sleep sets off).
func (t *take) leavesSibling() bool {
	if t.cands == nil {
		return t.n > 1
	}
	for alt := range t.cands {
		if alt != t.pick && !t.sleepAt.contains(t.cands[alt].fp) {
			return true
		}
	}
	return false
}

// workItem is one pending branch: the scripted choices that lead to it
// plus the sleep set that becomes active once they are replayed. prefix
// are the picks before the last — a slice of one array the spawning run
// built for all the siblings it left, never written again — and last is
// that one; a bare replay and an item read back from a checkpoint keep
// the whole sequence in prefix, and the root, the zero item, has none.
// from, when set, is a boundary on the path that the spawning run saved.
type workItem struct {
	prefix   []int
	last     int
	scripted int // len(prefix), and one more where last counts
	sleep    sleepSet
	from     *boundary
}

// pick is the scripted choice at point pos < scripted.
func (it *workItem) pick(pos int) int {
	if pos < len(it.prefix) {
		return it.prefix[pos]
	}
	return it.last
}

// choicesOf assembles the choice sequence of a run of the item: its first
// covered picks, which the run's boundary covers, then what the run took.
func choicesOf(it *workItem, covered int, taken []take) []int {
	out := make([]int, covered, covered+len(taken))
	for i := range out {
		out[i] = it.pick(i)
	}
	for i := range taken {
		out = append(out, taken[i].pick)
	}
	return out
}

// boundary is an execution saved at a kernel-step boundary: the machine
// as it stood when the scheduler was about to resolve choice point pos
// of its run, having resolved pos before it. It is usable only on the
// machine it was taken from (the events it holds are that machine's
// closures), the explorer's. Every work item spawned at or after the point
// holds it; when the last of them has run, the explorer takes it back for
// its next save.
type boundary struct {
	refs  int // work items holding it
	pos   int // choice points resolved on the path before it
	steps int // kernel steps on the path before it
	st    execState
}

// mcChooser scripts an execution: the first choice points follow the work
// item, the rest pick the first non-slept candidate (plain 0 when sleep
// sets are off). Reduction happens here — an eager pick is
// NOT recorded as a choice point, which is sound because the persistent
// decision is a pure function of the candidate set and therefore replays
// identically.
//
// Sleep bookkeeping: the chooser implements sim.DispatchObserver, so it
// sees every dispatched kernel event — including single-candidate
// dispatches and eager fires — and drops sleep members dependent with
// each executed transition. The work item's sleep set activates exactly
// when its prefix's final pick has dispatched: for a scheduler choice
// the chooser arms and installs it on the next Dispatched callback (the
// picked event itself, which must not be filtered against it); for an
// arbitration choice the grant event has already dispatched, so it
// installs immediately.
type mcChooser struct {
	n         int
	classify  func(any) tagClass
	grantCls  func(string, any) tagClass
	depth     int
	eager     bool
	sleepOn   bool
	initSleep sleepSet

	// item scripts the first scripted choice points of the path; the
	// machine starts from a boundary that covers the first covered of
	// them, so point pos of the path is taken[pos-covered].
	item    workItem
	covered int

	sleep    sleepSet
	armed    bool
	active   bool
	taken    []take
	limitHit bool
	blocked  bool

	// clsScratch backs classesOf between choice points. kept is the
	// run's arena for the classes a take records (take.cands), emptied by
	// start; fpBuf holds the sleep set's fingerprints for one Visit.
	clsScratch []tagClass
	kept       []tagClass
	fpBuf      []uint64

	// chunk is what afterExec and children carve new sleep sets from;
	// done and kids are children's buffers.
	chunk sleepChunk
	done  []tagClass
	kids  []workItem

	// atBoundary, when set, is told about every scheduler choice point
	// beyond the prefix that leaves an alternative for a sibling branch,
	// before the pick is returned: the kernel consults the chooser before
	// it touches its heap or its clock, so the machine is still at the
	// step boundary and can be saved there. pos is the point's index on
	// the path. Arbitration choice points sit in the middle of a grant
	// event and are not reported.
	atBoundary func(pos int)
}

// newMCChooser returns a chooser bound to ck under the options'
// reduction; start scripts it for one execution.
func newMCChooser(ck checker, n int, opts *Options) *mcChooser {
	return &mcChooser{
		n:        n,
		classify: ck.classify,
		grantCls: ck.grantClass,
		eager:    !opts.DisablePOR,
		sleepOn:  !opts.DisablePOR && !opts.DisableSleep,
	}
}

// start scripts the chooser for one execution of the work item under the
// depth bound, keeping the buffers of the execution before. The machine
// has already resolved the item's first covered choice points — it starts
// from a boundary saved there — so the execution resumes at that one.
func (c *mcChooser) start(it workItem, depth, covered int) {
	c.item, c.covered = it, covered
	c.depth, c.initSleep = depth, it.sleep
	c.sleep, c.armed, c.active = nil, false, false
	c.taken, c.kept = c.taken[:0], c.kept[:0]
	c.limitHit, c.blocked = false, false
	if c.sleepOn && it.scripted == 0 {
		c.active = true
		c.sleep = c.initSleep
	}
}

// replayChooser scripts a counterexample re-execution: prefix picks,
// then default 0, with the same eager-firing as exploration but no sleep
// sets (a Violation's Choices records every resolved choice point up to
// the failure, so the replay is exact either way).
func replayChooser(ck checker, n int, prefix []int, opts *Options) *mcChooser {
	c := newMCChooser(ck, n, opts)
	c.sleepOn = false
	c.start(workItem{prefix: prefix, scripted: len(prefix)}, 0, 0)
	return c
}

func (c *mcChooser) Choose(cp sim.ChoicePoint, cands []sim.Candidate) int {
	isSched := cp.Kind == "sched"
	var classes []tagClass
	classesOf := func() []tagClass {
		if classes == nil {
			if cap(c.clsScratch) < len(cands) {
				c.clsScratch = make([]tagClass, len(cands))
			}
			classes = c.clsScratch[:len(cands)]
			for i := range cands {
				if isSched {
					classes[i] = c.classify(cands[i].Tag)
				} else {
					classes[i] = c.grantCls(cp.Name, cands[i].Tag)
				}
			}
		}
		return classes
	}
	if c.eager && isSched {
		if i := persistentIndex(c.n, classesOf()); i >= 0 {
			return i
		}
	}
	pos := c.pos()
	if c.depth > 0 && pos >= c.depth {
		c.limitHit = true
		return 0
	}
	scripted := pos < c.item.scripted
	pick := 0
	if scripted {
		pick = c.item.pick(pos)
		if pick < 0 || pick >= len(cands) {
			pick = 0
		}
	} else if c.sleepOn && isSched {
		pick = -1
		cls := classesOf()
		for i := range cands {
			if !c.sleep.contains(cls[i].fp) {
				pick = i
				break
			}
		}
		if pick < 0 {
			// Every enabled transition is slept: everything from here is
			// covered by sibling branches. Truncate the run.
			c.blocked = true
			return 0
		}
	}
	tk := take{pick: pick, n: len(cands)}
	if !scripted && c.sleepOn {
		from := len(c.kept)
		c.kept = append(c.kept, classesOf()...)
		tk.cands = c.kept[from:len(c.kept):len(c.kept)]
		tk.sleepAt = c.sleep
	}
	if !scripted && isSched && c.atBoundary != nil && tk.leavesSibling() {
		c.atBoundary(pos)
	}
	c.taken = append(c.taken, tk)
	if c.sleepOn && pos+1 == c.item.scripted {
		if isSched {
			c.armed = true
		} else {
			c.sleep = c.initSleep
			c.active = true
		}
	}
	return pick
}

// Dispatched implements sim.DispatchObserver: sleep members stop being
// skippable once a dependent transition executes.
func (c *mcChooser) Dispatched(tag any) {
	if c.armed {
		c.armed = false
		c.active = true
		c.sleep = c.initSleep
		return
	}
	if !c.active || len(c.sleep) == 0 {
		return
	}
	c.sleep = c.sleep.afterExec(c.n, c.classify(tag), &c.chunk)
}

// pos is the number of choice points resolved on the path so far.
func (c *mcChooser) pos() int { return c.covered + len(c.taken) }

// choices is the choice sequence of the path so far.
func (c *mcChooser) choices() []int { return choicesOf(&c.item, c.covered, c.taken) }

// The visited-state table lives in internal/statespace: each canonical
// fingerprint maps to the smallest sleep set (as sorted transition
// fingerprints) it has been explored with — arriving with a superset
// means everything from here was already covered; anything else
// re-explores and the table keeps the intersection. An empty stored set
// — always the case with sleep sets off — truncates every revisit, PR
// 1's behavior. statespace.Store preserves that contract bit-for-bit
// while adding the disk tier and checkpoints.

// explorer holds the cross-run state of one exploration. The machine is
// rewound from run to run, not rebuilt, and the chooser keeps its
// buffers; the first run builds both.
type explorer struct {
	sc      *Scenario
	opts    Options
	sh      *shared
	n       int
	visited *statespace.Store
	budget  bool
	cost    Cost // all but the store's counters, which costNow adds
	scRuns  uint64
	scUndec uint64
	// alive counts the boundaries work items hold
	// (cost.PeakBoundaries is its high-water mark).
	alive int

	ck checker
	rw rewinder // ck, if its executions can be saved and resumed
	ch *mcChooser
	// base is the number of kernel steps on the path before the boundary
	// the run in progress started from, and saved the boundaries it has
	// saved so far. free are dead boundaries awaiting reuse: a boundary is
	// a few kilobytes of buffers that the next save fills without
	// allocating.
	base  int
	saved []*boundary
	free  []*boundary

	// scenH/optH pin checkpoints to this exploration; totalPrev carries
	// run counts of completed deepening iterations into checkpoints.
	scenH, optH string
	totalPrev   int
}

type runOut struct {
	// taken are the choice points from point covered of the path on, and
	// ch the chooser that took them, whose buffers children reuses.
	taken     []take
	covered   int
	ch        *mcChooser
	violation *Violation
	truncated bool // stopped at an already-visited state
	limitHit  bool // the depth bound forced a default choice
	stepsHit  bool // the per-run step guard fired
	blocked   bool // every enabled transition was slept
	budgetCut bool // this run hit the state budget
	// saved are the boundaries the run saved, in path order, and from the
	// one it started from (nil after a reset); children hands them to the
	// branches it spawns.
	saved []*boundary
	from  *boundary
}

// run executes the scenario under the given work item: from the item's
// boundary if it has one, else from reset. States beyond the prefix are
// checked against the visited table and added to it. Inside the prefix — what is left of it after the boundary
// — it neither consults the table nor runs the per-step oracle: those
// states were recorded and checked by the run that spawned this branch,
// and truncating the replay would orphan it. The returned runOut's taken
// and saved are valid until the explorer's next run.
func (e *explorer) run(it workItem, depth int) runOut {
	from := it.from
	switch {
	case e.ck == nil:
		e.ck = newChecker(e.sc, e.sh)
		e.ch = newMCChooser(e.ck, e.n, &e.opts)
		if e.rw, _ = e.ck.(rewinder); e.rw != nil {
			e.ch.atBoundary = e.saveBoundary
		}
	case from != nil:
		e.rw.load(&from.st)
		e.cost.Restores++
	default:
		e.ck.reset()
	}
	e.base, e.saved = 0, e.saved[:0]
	covered := 0
	if from != nil {
		e.base, covered = from.steps, from.pos
	}
	e.ch.start(it, depth, covered)
	out := e.execute(e.ck, e.ch, true, e.base)
	out.saved, out.from = e.saved, from
	return out
}

// saveBoundary is the chooser's atBoundary: it saves the execution in
// progress, which is about to resolve choice point pos.
func (e *explorer) saveBoundary(pos int) {
	var b *boundary
	if n := len(e.free); n > 0 {
		b, e.free = e.free[n-1], e.free[:n-1]
	} else {
		b = &boundary{}
	}
	e.rw.save(&b.st)
	b.pos = pos
	b.steps = e.base + int(e.ck.kernel().Executed())
	e.saved = append(e.saved, b)
	if e.alive++; e.alive > e.cost.PeakBoundaries {
		e.cost.PeakBoundaries = e.alive
	}
}

// retire ends a run's bookkeeping once its children are spawned: the item
// lets go of the boundary it held, and a boundary no work item holds any
// more goes back to the free list.
func (e *explorer) retire(it workItem, r runOut) {
	for _, b := range r.saved {
		if b.refs == 0 {
			e.recycle(b)
		}
	}
	if b := it.from; b != nil {
		if b.refs--; b.refs == 0 {
			e.recycle(b)
		}
	}
}

func (e *explorer) recycle(b *boundary) {
	e.alive--
	e.free = append(e.free, b)
}

// execute drives one execution to its end. The machine stands base kernel
// steps into the path (zero after a reset): the step guard counts from
// there, the steps counter only what is executed here. track marks an
// exploration run, whose scripted choices replay states the spawning run
// already checked and recorded: they skip the per-step oracle and the
// visited table, and states beyond are tracked. A replay (track unset)
// checks every step — its violation may sit inside the prefix.
func (e *explorer) execute(ck checker, ch *mcChooser, track bool, base int) runOut {
	ck.enableMC(ch)
	k := ck.kernel()
	var out runOut
	steps, replayed := base, 0
	for k.Pending() > 0 {
		if steps >= e.opts.MaxStepsPerRun {
			out.stepsHit = true
			break
		}
		k.Step()
		steps++
		if ch.blocked {
			out.blocked = true
			break
		}
		if track && ch.pos() < ch.item.scripted {
			replayed++
			continue
		}
		if v := ck.stepCheck(e.opts.MaxReissues); v != nil {
			out.violation = v
			break
		}
		if track {
			fp := ck.canonicalFP()
			ch.fpBuf = ch.sleep.fps(ch.fpBuf)
			switch e.visited.Visit(fp, ch.fpBuf, e.opts.MaxStates) {
			case statespace.OutcomeNew:
				if e.opts.onNew != nil {
					e.opts.onNew(fp)
				}
			case statespace.OutcomeSeen:
				out.truncated = true
			case statespace.OutcomeBudget:
				e.budget = true
				out.budgetCut = true
			}
			if out.truncated || out.budgetCut {
				break
			}
		}
	}
	if out.violation == nil && !out.truncated && !out.blocked && !out.stepsHit && !out.budgetCut && k.Pending() == 0 {
		out.violation = ck.quiescenceCheck()
	}
	out.taken, out.covered, out.ch = ch.taken, ch.covered, ch
	out.limitHit = ch.limitHit
	if out.violation != nil {
		out.violation.Choices = ch.choices()
	}
	fpn := ck.fpStats()
	e.cost.FPRecomputes += fpn.FPRecomputes
	e.cost.FPIncremental += fpn.FPIncremental
	e.cost.FPPoints += fpn.FPPoints
	e.cost.FPCombines += fpn.FPCombines
	scc, scu := ck.scStats()
	e.scRuns += scc
	e.scUndec += scu
	e.cost.Steps += uint64(steps - base)
	e.cost.ReplaySteps += uint64(replayed)
	return out
}

// children spawns the unexplored alternatives of every choice point a
// run resolved beyond its prefix (positions inside the prefix belong to
// ancestor runs). Under the sleep-set reduction, alternatives already
// slept at the point are skipped, and each spawned sibling inherits the
// point's sleep set plus its earlier siblings, filtered to the members
// independent of its own pick. Each sibling also takes hold of the last
// boundary the run saved at or before its choice point — for a scheduler
// point the one saved at the point itself, for an arbitration point an
// earlier one, a step or two back — or, failing that, the boundary the
// run itself started from. The siblings share their prefixes: slices of
// one copy of the run's choices, made when the first of them is spawned,
// and their sleep sets are carved from the chooser's chunk. The returned
// slice is the chooser's buffer, valid until the explorer's next run.
func (e *explorer) children(it workItem, r runOut) []workItem {
	c := r.ch
	if c == nil {
		c = &mcChooser{} // an outcome made by hand
	}
	out := c.kids[:0]
	var picks []int
	nsaved := len(r.saved)
	for p := r.covered + len(r.taken) - 1; p >= it.scripted; p-- {
		t := &r.taken[p-r.covered]
		if t.n < 2 {
			continue
		}
		for nsaved > 0 && r.saved[nsaved-1].pos > p {
			nsaved--
		}
		from := r.from
		if nsaved > 0 {
			from = r.saved[nsaved-1]
		}
		spawn := func(alt int, sleep sleepSet) {
			if picks == nil {
				picks = choicesOf(&it, r.covered, r.taken)
			}
			out = append(out, workItem{prefix: picks[:p:p], last: alt, scripted: p + 1, sleep: sleep, from: from})
			if from != nil {
				from.refs++
			}
		}
		if t.cands == nil {
			// Sleep sets off: spawn every alternative.
			for alt := t.n - 1; alt >= 1; alt-- {
				spawn(alt, nil)
			}
			continue
		}
		c.done = append(c.done[:0], t.cands[t.pick])
		for alt := 0; alt < t.n; alt++ {
			if alt == t.pick {
				continue
			}
			cls := t.cands[alt]
			if t.sleepAt.contains(cls.fp) {
				continue
			}
			spawn(alt, childSleep(e.n, t.sleepAt, c.done, cls, &c.chunk))
			c.done = append(c.done, cls)
		}
	}
	c.kids = out
	return out
}

type passOut struct {
	runs      int
	violation *Violation
	limitAny  bool
	stepsAny  bool
	canceled  bool
	// err is a store failure (spill I/O, checkpoint write); the pass
	// stops at the frontier boundary that observed it.
	err error
}

// ctxDone reports cooperative cancellation; checked only at frontier
// boundaries so a cancel never interrupts an execution midway (runs stay pure functions of their work items).
func (e *explorer) ctxDone() bool {
	return e.opts.Ctx != nil && e.opts.Ctx.Err() != nil
}

// report delivers a frontier-boundary progress snapshot.
func (e *explorer) report(runs, depth, frontier int) {
	if e.opts.Progress != nil {
		e.opts.Progress(Progress{States: e.visited.States(), Runs: runs, Depth: depth, Frontier: frontier, Cost: e.costNow()})
	}
}

// costNow is the search's host cost so far: the explorer's counters with
// the visited store's.
func (e *explorer) costNow() Cost {
	c, st := e.cost, e.visited
	c.StoreHot, c.StoreDisk, c.StoreReads = st.Tier.HotHits.Load(), st.Tier.DiskLookups.Load(), st.Tier.DiskReads.Load()
	c.Spills, c.Syncs, c.DiskBytes = st.Spills(), st.Syncs(), st.DiskBytes()
	return c
}

// drive runs one depth-bounded pass: a sequential DFS over a LIFO
// frontier, starting from the given stack and carried counters (fresh
// ones on a normal run, a checkpoint's on a resume). Its outcome —
// including which violation is found first — is a pure function of the
// scenario, options, and starting state (absent a Ctx cancellation),
// which is what makes a resumed search byte-identical to an
// uninterrupted one. The pass stops at the first frontier boundary — the
// end of a run — that sees a violation, a store failure, the state
// budget hit or Ctx canceled.
func (e *explorer) drive(depth int, stack []workItem, out passOut) passOut {
	ckptEvery := 0
	if e.opts.CheckpointDir != "" {
		ckptEvery = e.opts.CheckpointEvery
	}
	for sinceCkpt := 0; len(stack) > 0 && !e.budget; {
		if e.ctxDone() {
			out.canceled = true
			return out
		}
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r := e.run(it, depth)
		kids := e.children(it, r)
		e.retire(it, r)
		out.runs++
		out.limitAny = out.limitAny || r.limitHit
		out.stepsAny = out.stepsAny || r.stepsHit
		if r.violation != nil {
			out.violation = r.violation
			return out
		}
		if out.err = e.visited.Err(); out.err != nil {
			return out
		}
		stack = append(stack, kids...)
		e.report(out.runs, depth, len(stack))
		if sinceCkpt++; ckptEvery > 0 && sinceCkpt >= ckptEvery && len(stack) > 0 {
			if out.err = e.checkpoint(depth, stack, &out); out.err != nil {
				return out
			}
			sinceCkpt = 0
		}
	}
	return out
}

// Explore model-checks the scenario within the given bounds.
func Explore(sc Scenario, opts Options) (Result, error) {
	sc.FillDefaults()
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	opts.fillDefaults()
	e := &explorer{sc: &sc, opts: opts, sh: newShared(&sc, &opts), n: sc.N}
	res := Result{Scenario: sc.Name}

	ckptOn := opts.CheckpointDir != ""
	e.scenH, e.optH = scenarioHash(&sc), optionsHash(&opts)
	cfg := statespace.Config{Dir: opts.StoreDir, MemBudget: opts.MemBudget, CheckpointDir: opts.CheckpointDir}

	depth := opts.MaxDepth // 0 = unlimited: a single full-depth pass
	if opts.DepthStep > 0 {
		depth = opts.DepthStep
	}
	stack := []workItem{{}}
	var init passOut
	if opts.Resume && ckptOn {
		st, meta, frontier, err := statespace.Resume(cfg, e.scenH, e.optH)
		switch {
		case err == nil:
			e.visited = st
			stack = frontierToItems(frontier)
			depth = meta.Depth
			e.restoreCounters(meta.Counters, &init)
			res.TotalRuns = e.totalPrev
			res.Resumed = true
		case errors.Is(err, statespace.ErrNoCheckpoint):
			// Nothing to resume; fall through to a fresh search.
		case errors.Is(err, statespace.ErrCorrupt), errors.Is(err, statespace.ErrMismatch):
			// A damaged or foreign checkpoint is detected, reported, and
			// re-explored from scratch — never silently trusted.
			res.ResumeNote = err.Error()
			if cerr := statespace.Clear(cfg); cerr != nil {
				return res, cerr
			}
		default:
			return res, err
		}
	}
	if e.visited == nil {
		st, err := statespace.Open(cfg)
		if err != nil {
			return res, err
		}
		e.visited = st
	}
	defer e.visited.Close()

	for {
		p := e.drive(depth, stack, init)
		if p.err == nil {
			p.err = e.visited.Err()
		}
		res.TotalRuns = e.totalPrev + p.runs
		res.Runs = p.runs
		res.States = e.visited.States()
		res.Depth = depth
		res.BudgetHit = e.budget
		res.SCChecks = e.scRuns
		res.SCUndecided = e.scUndec
		res.Cost = e.costNow()
		if p.err != nil {
			return res, p.err
		}
		if sc.CheckSC {
			switch {
			case p.violation != nil && p.violation.Kind == "sc-total":
				res.SCVerdict = "violation"
			case res.SCUndecided > 0:
				res.SCVerdict = "undecided"
			default:
				res.SCVerdict = "ok"
			}
		}
		if p.violation != nil {
			v := p.violation
			if !opts.NoMinimize {
				v = e.minimize(v)
			}
			res.Violation = v
			return res, nil
		}
		if p.canceled {
			res.Canceled = true
			return res, nil
		}
		if res.BudgetHit {
			return res, nil
		}
		if !p.limitAny && !p.stepsAny {
			// No run was cut short: the bounded space is exhausted and
			// deeper iterations would explore nothing new.
			res.Exhausted = true
			return res, nil
		}
		atMax := opts.DepthStep == 0 || (opts.MaxDepth > 0 && depth >= opts.MaxDepth)
		if atMax || !p.limitAny {
			// Some run was cut by the step guard (or the final depth):
			// the space was not fully covered, and deepening further
			// would not change that.
			return res, nil
		}
		depth += opts.DepthStep
		if opts.MaxDepth > 0 && depth > opts.MaxDepth {
			depth = opts.MaxDepth
		}
		// Next deepening iteration: fresh table (run files included),
		// fresh frontier, carried TotalRuns.
		e.totalPrev = res.TotalRuns
		if err := e.visited.Reset(); err != nil {
			return res, err
		}
		e.budget = false
		stack = []workItem{{}}
		init = passOut{}
	}
}

// replayRun re-executes a bare choice prefix with defaults beyond it and
// no sleep sets — the semantics Violation.Choices is defined against —
// on a machine of its own, checking every step.
func (e *explorer) replayRun(prefix []int) runOut {
	ck := newChecker(e.sc, e.sh)
	ch := replayChooser(ck, e.n, prefix, &e.opts)
	return e.execute(ck, ch, false, 0)
}

// minimize greedily shrinks a counterexample: repeatedly lower the
// latest non-default choice that still reproduces a violation of the
// same kind. Each accepted shrink is lexicographically smaller, so the
// loop terminates; the result is locally minimal (no single choice can
// be lowered further).
func (e *explorer) minimize(v *Violation) *Violation {
	cur := v
	attempts := 0
	for improved := true; improved && attempts < 400 && !e.ctxDone(); {
		improved = false
		for i := len(cur.Choices) - 1; i >= 0 && !improved; i-- {
			if cur.Choices[i] == 0 {
				continue
			}
			for alt := 0; alt < cur.Choices[i] && !improved; alt++ {
				cand := append([]int(nil), cur.Choices[:i+1]...)
				cand[i] = alt
				attempts++
				r := e.replayRun(cand)
				if r.violation != nil && r.violation.Kind == cur.Kind {
					cur = r.violation
					improved = true
				}
				if attempts >= 400 {
					break
				}
			}
		}
	}
	for len(cur.Choices) > 0 && cur.Choices[len(cur.Choices)-1] == 0 {
		cur.Choices = cur.Choices[:len(cur.Choices)-1]
	}
	return cur
}
