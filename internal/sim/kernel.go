// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the heartbeat of every machine model in this repository:
// buses, caches, memories and processors all advance by scheduling closures
// at future points in simulated time. Events with equal timestamps are
// executed in scheduling order (a strictly increasing sequence number breaks
// ties), so a run is reproducible bit-for-bit given the same inputs.
//
// Simulated processors that are written as ordinary Go code (the examples
// in this repository run real programs against the simulated memory) attach
// to the kernel through a Proc, which alternates control between the
// program goroutine and the kernel so that no two goroutines ever touch
// kernel state concurrently. Determinism is preserved because at most one
// goroutine runs at a time.
// The package participates in the explorer's determinism contract: no
// wall clock, no map-order dependence, no scheduling outside the chooser
// seam. multicube-vet enforces this (see internal/analysis).
//
//multicube:deterministic
package sim

import "fmt"

// Time is simulated time in nanoseconds since the start of the run.
type Time uint64

// Common durations, for readability at call sites.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%d.%03ds", t/Second, (t%Second)/Millisecond)
	case t >= Millisecond:
		return fmt.Sprintf("%d.%03dms", t/Millisecond, (t%Millisecond)/Microsecond)
	case t >= Microsecond:
		return fmt.Sprintf("%d.%03dus", t/Microsecond, (t%Microsecond)/Nanosecond)
	default:
		return fmt.Sprintf("%dns", uint64(t))
	}
}

// Never is a Time later than every reachable simulation instant; it is
// the "no constraint" value for event bounds.
const Never Time = ^Time(0)

// Birth identifies when an event was scheduled: the simulated time of
// the scheduling context and the composite slot of this scheduling call
// within it (see subBits). The parallel runner combines it with the
// scheduler's lineage to reconstruct the sequential kernel's global
// scheduling order exactly. Zero outside parallel mode.
type Birth struct {
	At  Time
	Idx uint64
}

// Composite Birth indices: the high bits are the scheduling slot within
// the executing event, the low subBits are consumed only by actions a
// Runner.Defer resumed at a boundary, which slot their children between
// the parent's own slots exactly where the action would have scheduled
// them had it run inline (sequential semantics).
const (
	subBits = 16
	subMask = 1<<subBits - 1
)

// lineage is one node of the scheduling genealogy the parallel runner
// maintains: the birth stamp of a dispatched event plus a pointer to the
// lineage of the event that scheduled it (nil for setup code). Two
// same-instant events order exactly as the sequential kernel's global
// sequence numbers would order them by comparing (birth time, scheduler
// lineage, birth slot) — see cmpLin. Nodes are created lazily, only for
// events that schedule children, and become garbage as soon as no
// pending event descends from them; chains stay short in practice
// because a chain only grows while consecutive ancestors avoid the
// global kernel.
type lineage struct {
	bAt    Time
	idx    uint64
	parent *lineage
}

// cmpLin orders two scheduler lineages like the sequential kernel orders
// the corresponding events' global sequence numbers: an event scheduled
// at an earlier instant has the smaller sequence; at equal instants the
// schedulers' own dispatch order decides (recursively, grounded at setup
// order); same scheduler falls to the slot index. nil (setup) precedes
// every dispatched scheduler because setup runs before time starts.
// Recursion depth is bounded by the equal-birth-time prefix of the two
// chains, which the differential sweep keeps honest.
func cmpLin(a, b *lineage) int {
	if a == b {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	if a.bAt != b.bAt {
		if a.bAt < b.bAt {
			return -1
		}
		return 1
	}
	if c := cmpLin(a.parent, b.parent); c != 0 {
		return c
	}
	if a.idx != b.idx {
		if a.idx < b.idx {
			return -1
		}
		return 1
	}
	return 0
}

// birthClock stamps scheduling calls and remembers which event is
// currently executing (the parent of anything scheduled now). A kernel
// dispatching an event points the clock at that event; every schedule
// call on a kernel sharing the clock takes the next slot. The parallel
// runner points all kernels at one clock during its coordinator phases
// so siblings scheduled by one parent event onto different kernels stay
// mutually ordered; during windows each partition stamps from its own
// clock. Slot counters need not be comparable across clocks: slots are
// only ever compared between children of one parent event, which are
// stamped by one clock.
type birthClock struct {
	at   Time
	slot uint64
	// The executing event's identity: its birth stamp and its scheduler's
	// lineage. node caches the lazily created lineage handed to children.
	active bool
	node   *lineage
	evAt   Time
	evIdx  uint64
	evPar  *lineage
	// Resume context: a boundary re-executing a deferred send slots the
	// send's children under the original parent at the send's reserved
	// composite index (see Runner.Defer).
	resume    bool
	resumeIdx uint64
	sub       uint64
	// slab bump-allocates lineage nodes in chunks: the clock mints about
	// one node per dispatched event with children, and chunked allocation
	// roughly halves the allocator traffic of parallel mode. A chunk is
	// collected once no pending event's lineage chain reaches into it;
	// chains stay short (see lineage), so retention stays bounded.
	slab []lineage
}

// beginEvent retargets the clock at a newly dispatched event. The slot
// counter continues across events dispatched at the same instant; it
// resets with the instant only to stay small.
func (c *birthClock) beginEvent(e *event) {
	if c.at != e.at {
		c.at, c.slot = e.at, 0
	}
	c.active, c.node = true, nil
	c.evAt, c.evIdx, c.evPar = e.birth.At, e.birth.Idx, e.parent
	c.resume = false
}

// beginResume points the clock at a deferred send being re-executed at a
// boundary: children stamp under the send's original parent lineage at
// the send's reserved slot, reproducing inline execution order.
func (c *birthClock) beginResume(at Time, parent *lineage, idx uint64) {
	if c.at != at {
		c.at, c.slot = at, 0
	}
	c.active, c.node = true, parent
	c.resume, c.resumeIdx, c.sub = true, idx, 0
}

// endResume deactivates the clock after a resumed send returns.
func (c *birthClock) endResume() {
	c.active, c.node, c.resume = false, nil, false
}

// parentNode returns the executing event's lineage, creating it on first
// use; nil when no event is executing (setup code).
func (c *birthClock) parentNode() *lineage {
	if !c.active {
		return nil
	}
	if c.node == nil {
		if len(c.slab) == cap(c.slab) {
			c.slab = make([]lineage, 0, 512)
		}
		c.slab = append(c.slab, lineage{bAt: c.evAt, idx: c.evIdx, parent: c.evPar})
		c.node = &c.slab[len(c.slab)-1]
	}
	return c.node
}

// stamp assigns the next birth stamp and the scheduler lineage for one
// scheduling call.
func (c *birthClock) stamp() (Birth, *lineage) {
	if c.resume {
		c.sub++
		if c.sub > subMask {
			panic("sim: deferred send scheduled too many events")
		}
		return Birth{At: c.at, Idx: c.resumeIdx | c.sub}, c.node
	}
	b := Birth{At: c.at, Idx: c.slot << subBits}
	c.slot++
	return b, c.parentNode()
}

type event struct {
	at  Time
	seq uint64
	fn  func()
	// tag optionally identifies the event for model checking: choice
	// enumeration, state fingerprinting and counterexample rendering.
	tag any
	// bound is the earliest simulated time at which this event — or any
	// event it transitively schedules — may take an action visible
	// outside its partition (see AtBounded). It is meaningful only under
	// the parallel runner; the default, bound == at, declares the event
	// itself unsafe.
	bound Time
	// birth records when the event was scheduled and parent the lineage
	// of the event that scheduled it (parallel mode only). Together they
	// reconstruct the full scheduling genealogy, which is what the
	// parallel runner's deterministic merge compares.
	birth  Birth
	parent *lineage
}

// eventHeap is a binary min-heap on (at, seq) with hand-written sift
// functions: the container/heap interface boxes every event into an
// interface value on Push and Pop, and under a model checker the kernel
// pushes and pops millions of events.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	old.Swap(0, n)
	e := old[n]
	old[n] = event{}
	*h = old[:n]
	if n > 0 {
		(*h).down(0)
	}
	return e
}

// remove deletes the element at index i, preserving the heap order.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old.Swap(i, n)
	}
	old[n] = event{}
	*h = old[:n]
	if i < n {
		if !(*h).down(i) {
			(*h).up(i)
		}
	}
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		j = i
	}
}

func (h eventHeap) down(i0 int) bool {
	i := i0
	n := len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.Less(j2, j1) {
			j = j2
		}
		if !h.Less(j, i) {
			break
		}
		h.Swap(i, j)
		i = j
	}
	return i > i0
}

// Kernel is a single-threaded discrete-event scheduler.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap
	procs  []*Proc

	// chooser, when set, resolves dispatch order among candidate events;
	// nil keeps the historical (time, sequence) order with zero overhead.
	chooser Chooser
	// allEvents widens the candidate set from "events sharing the
	// earliest timestamp" to every pending event — the untimed
	// interpretation a protocol model checker wants, where a message may
	// take arbitrarily long and any pending action can happen next.
	allEvents bool

	// executed counts events dispatched, for diagnostics and tests.
	executed uint64
	// dispatching is the tag of the event being dispatched (Dispatching).
	dispatching any

	// stamper, when non-nil, stamps every scheduled event with a Birth
	// key derived from the event currently executing. The parallel
	// runner installs it; sequential kernels leave it nil.
	stamper *birthClock

	// scratch buffers reused by stepChosen, which runs once per kernel
	// step under a model checker and must not allocate.
	ordered []scratchEvent
	cands   []Candidate
}

// scratchEvent pairs an event with its current position in the live
// heap, so stepChosen can remove the chosen event by index instead of
// scanning the heap for its sequence number.
type scratchEvent struct {
	event
	heapIdx int
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// KernelState is a caller-owned buffer holding a kernel at a step
// boundary: the clock, the sequence counter and every pending event with
// its closure and tag. Save fills it and keeps its capacity, so one
// buffer serves many saves.
type KernelState struct {
	now    Time
	seq    uint64
	events eventHeap
}

// Save copies the kernel's clock, sequence counter and pending events
// into st. The events keep their closures: a saved state is only good
// for rewinding the kernel it was taken from, and only if restoring the
// data those closures read restores what they will do — the caller's
// obligation. The chooser and the dispatch counter are not part of it.
// Call it between steps (a Chooser's Choose counts: stepChosen consults
// it before touching the heap or the clock). A kernel with processes has
// goroutines parked mid-program, and a parallel Runner's kernel lineage
// state, neither of which a copy captures, so both panic.
func (k *Kernel) Save(st *KernelState) {
	if len(k.procs) > 0 || k.stamper != nil {
		panic("sim: Save of a kernel with processes or under a parallel Runner")
	}
	st.now, st.seq = k.now, k.seq
	clear(st.events) // drop the closures of the state saved here before
	st.events = append(st.events[:0], k.events...)
}

// Load rewinds the kernel to a state Save took from it: same clock, same
// sequence counter, the same events in the same heap positions. The
// chooser stays installed. Executed restarts at zero — it counts the
// events this kernel really dispatched since it was built or last
// loaded, which is what a harness timing a run wants to read.
func (k *Kernel) Load(st *KernelState) {
	k.now, k.seq = st.now, st.seq
	clear(k.events) // drop the closures of the abandoned future
	k.events = append(k.events[:0], st.events...)
	k.executed = 0
}

// Now reports the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of events waiting to run.
func (k *Kernel) Pending() int { return len(k.events) }

// Executed reports the number of events dispatched since the kernel was
// built or Loaded: host work done, not a position in simulated history.
func (k *Kernel) Executed() uint64 { return k.executed }

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: it always indicates a modeling bug.
func (k *Kernel) At(t Time, fn func()) { k.AtTagged(t, nil, fn) }

// AtTagged is At with a scheduling tag attached to the event, identifying
// it to a Chooser and to state-fingerprinting code.
func (k *Kernel) AtTagged(t Time, tag any, fn func()) {
	k.AtBounded(t, t, tag, fn)
}

// AtBounded schedules fn at t and declares bound: a lower bound on the
// earliest simulated time at which this event, or any event it
// transitively schedules, may take an action visible outside its
// partition (a cross-partition bus send). The default of the other
// schedule calls, bound == t, is always sound ("this event itself may
// send"). A larger bound is a promise the parallel runner uses to widen
// its synchronization windows; bound == Never promises the event's whole
// causal future stays partition-local. Outside parallel mode the bound
// is ignored.
//
// Soundness rule for callers: every event an fn with bound B schedules
// must itself carry a bound >= B (the default bound of a child at t' >= B
// satisfies this automatically).
func (k *Kernel) AtBounded(t, bound Time, tag any, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if bound < t {
		panic(fmt.Sprintf("sim: event bound %v precedes its time %v", bound, t))
	}
	k.seq++
	e := event{at: t, seq: k.seq, fn: fn, tag: tag, bound: bound}
	if k.stamper != nil {
		e.birth, e.parent = k.stamper.stamp()
	}
	k.events.push(e)
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// AfterTagged is After with a scheduling tag.
func (k *Kernel) AfterTagged(d Time, tag any, fn func()) { k.AtTagged(k.now+d, tag, fn) }

// SetChooser routes event dispatch order through ch (nil restores the
// default order). With allEvents false, only events sharing the earliest
// timestamp are offered — a tie-break refinement that preserves the
// timing model. With allEvents true, every pending event is a candidate:
// the untimed interpretation under which a model checker explores all
// message orderings regardless of latency constants; dispatching a later
// event advances the clock past it, so time stays monotonic.
func (k *Kernel) SetChooser(ch Chooser, allEvents bool) {
	k.chooser = ch
	k.allEvents = allEvents
}

// ForEachPending visits every pending event's (time, tag) in scheduling
// order. Model checkers include the pending set in state fingerprints.
func (k *Kernel) ForEachPending(fn func(at Time, tag any)) {
	for _, e := range k.sorted() {
		fn(e.at, e.tag)
	}
}

// sorted copies the pending events, each with its heap position, into
// the kernel's scratch buffer in (time, sequence) order. A Chooser may
// come back here through ForEachPending while stepChosen still reads the
// buffer: the heap has not changed, so it is rewritten with what it holds.
func (k *Kernel) sorted() []scratchEvent {
	ordered := k.ordered[:0]
	for i := range k.events {
		ordered = append(ordered, scratchEvent{event: k.events[i], heapIdx: i})
	}
	sortEvents(ordered)
	k.ordered = ordered
	return ordered
}

// ForEachPendingTag visits every pending event's tag in arbitrary
// (heap) order without allocating. Callers that need a deterministic
// combination must make their per-event contribution order-insensitive,
// e.g. by sorting derived hashes.
func (k *Kernel) ForEachPendingTag(fn func(tag any)) {
	for i := range k.events {
		fn(k.events[i].tag)
	}
}

// Dispatching returns the tag of the event whose body is running: in
// effect the body's argument. A component that schedules many events
// with one body, built at construction, tells them apart by it and
// allocates no closure per event. Outside an event body it is stale.
func (k *Kernel) Dispatching() any { return k.dispatching }

// Step dispatches one event — the single earliest, or the chooser's pick
// among the candidate set when a Chooser is installed. It reports false
// when no events remain.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	if k.chooser == nil {
		e := k.events.pop()
		k.now = e.at
		k.executed++
		if k.stamper != nil {
			k.stamper.beginEvent(&e)
		}
		k.dispatching = e.tag
		e.fn()
		return true
	}
	return k.stepChosen()
}

// stepChosen dispatches via the chooser. Candidates are presented in
// (time, sequence) order, so choice 0 is exactly the event the default
// path would dispatch.
func (k *Kernel) stepChosen() bool {
	ordered := k.sorted()
	n := len(ordered)
	if !k.allEvents {
		n = 1
		for n < len(ordered) && ordered[n].at == ordered[0].at {
			n++
		}
	}
	idx := 0
	if n > 1 {
		cands := k.cands[:0]
		for _, e := range ordered[:n] {
			cands = append(cands, Candidate{Tag: e.tag})
		}
		k.cands = cands
		idx = k.chooser.Choose(ChoicePoint{Kind: "sched"}, cands)
		if idx < 0 || idx >= n {
			panic(fmt.Sprintf("sim: chooser picked %d of %d candidates", idx, n))
		}
	}
	e := ordered[idx]
	// The scratch copy recorded each event's live heap position, and
	// nothing has mutated the heap since, so removal is O(log n) instead
	// of the historical O(pending) scan by sequence number.
	k.events.remove(e.heapIdx)
	if e.at > k.now {
		k.now = e.at
	}
	if obs, ok := k.chooser.(DispatchObserver); ok {
		obs.Dispatched(e.tag)
	}
	k.executed++
	k.dispatching = e.tag
	e.fn()
	return true
}

// sortEvents orders the scratch copy by (at, seq) without the
// interface boxing of sort.Sort: candidate sets are small, so an
// insertion sort wins and allocates nothing.
func sortEvents(evs []scratchEvent) {
	for i := 1; i < len(evs); i++ {
		e := evs[i]
		j := i
		for j > 0 && (e.at < evs[j-1].at || (e.at == evs[j-1].at && e.seq < evs[j-1].seq)) {
			evs[j] = evs[j-1]
			j--
		}
		evs[j] = e
	}
}

// Run dispatches events until none remain and returns the final time.
func (k *Kernel) Run() Time {
	for k.Step() {
	}
	return k.now
}

// RunUntil dispatches events with timestamps <= t, then advances the clock
// to exactly t. Events scheduled beyond t remain pending.
func (k *Kernel) RunUntil(t Time) {
	for len(k.events) > 0 && k.events[0].at <= t {
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// RunFor runs the simulation for d nanoseconds of simulated time.
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }

// The methods below are the seam the parallel runner (parallel.go) uses
// to drive a kernel as one partition of a larger machine. They bypass
// the chooser deliberately: parallel mode rejects choosers up front.

// NextAt reports the timestamp of the earliest pending event and whether
// one exists.
func (k *Kernel) NextAt() (Time, bool) {
	if len(k.events) == 0 {
		return 0, false
	}
	return k.events[0].at, true
}

// PeekKey reports the merge key of the earliest pending event — its
// birth stamp and its scheduler's lineage — for deterministic
// cross-kernel ordering of same-instant events. Valid only when NextAt
// reports true.
func (k *Kernel) PeekKey() (Birth, *lineage) {
	return k.events[0].birth, k.events[0].parent
}

// MinBound reports a lower bound on the earliest cross-partition effect
// among all pending events and their causal futures: the minimum bound
// over the pending set (exact, by the hereditary bound invariant on
// AtBounded). Never means no pending event can ever send. The linear
// scan beats a maintained heap here: partition kernels hold tens of
// pending events, and MinBound is read once per synchronization phase
// while a heap would pay per scheduled event.
func (k *Kernel) MinBound() Time {
	min := Never
	for i := range k.events {
		if b := k.events[i].bound; b < min {
			min = b
		}
	}
	return min
}

// RunWindow dispatches pending events with timestamps strictly below
// limit, in (time, sequence) order, and reports how many ran. It is the
// partition workhorse of the parallel runner: within the window the
// partition is causally isolated, so no chooser or cross-kernel merge
// applies.
func (k *Kernel) RunWindow(limit Time) uint64 {
	var n uint64
	for len(k.events) > 0 && k.events[0].at < limit {
		e := k.events.pop()
		k.now = e.at
		k.executed++
		if k.stamper != nil {
			k.stamper.beginEvent(&e)
		}
		k.dispatching = e.tag
		e.fn()
		n++
	}
	return n
}

// StepAt dispatches the earliest pending event if its timestamp is
// exactly t, reporting whether it did.
func (k *Kernel) StepAt(t Time) bool {
	if len(k.events) == 0 || k.events[0].at != t {
		return false
	}
	e := k.events.pop()
	k.now = t
	k.executed++
	if k.stamper != nil {
		k.stamper.beginEvent(&e)
	}
	k.dispatching = e.tag
	e.fn()
	return true
}

// AdvanceTo moves the clock forward to t without dispatching anything.
// The parallel runner aligns every kernel's clock at synchronization
// points so that relative scheduling (After) from a coordinator-executed
// event lands at the right absolute time in every kernel.
func (k *Kernel) AdvanceTo(t Time) {
	if len(k.events) > 0 && k.events[0].at < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip pending event at %v", t, k.events[0].at))
	}
	if t > k.now {
		k.now = t
	}
}
