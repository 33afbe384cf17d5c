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

import (
	"fmt"
	"slices"
)

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

type event struct {
	at  Time
	seq uint64
	fn  func()
	// tag optionally identifies the event for model checking: choice
	// enumeration, state fingerprinting and counterexample rendering.
	tag any
}

// eventHeap is a binary min-heap on (at, seq) with hand-written sift
// functions: the container/heap interface boxes every event into an
// interface value on Push and Pop, and under a model checker the kernel
// pushes and pops millions of events.
type eventHeap []event

// before orders events by (at, seq).
func (e *event) before(f *event) bool {
	return e.at < f.at || e.at == f.at && e.seq < f.seq
}

func (h eventHeap) Less(i, j int) bool { return h[i].before(&h[j]) }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// remove deletes the element at index i, preserving the heap order.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	old.Swap(i, n)
	old[n] = event{}
	*h = old[:n]
	if i < n && !(*h).down(i) {
		(*h).up(i)
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

// maxLanes caps the delays AfterFixed gives a lane of their own: a
// machine has a word, a block and a device latency.
const maxLanes = 4

// lane is the FIFO of the events AfterFixed scheduled with delay d. It
// holds few events (2.8 on average at a dispatch on des-shared), so a
// dispatch moves the rest down a slot instead of keeping a head index,
// and append reuses the array for good.
type lane struct {
	d      Time
	events []event
}

// remove deletes the lane's i-th event, keeping the rest in order.
func (l *lane) remove(i int) {
	n := len(l.events) - 1
	copy(l.events[i:], l.events[i+1:])
	l.events[n] = event{}
	l.events = l.events[:n]
}

// assign makes *dst a copy of src in *dst's array, dropping the
// closures of the events it held past len(src).
func assign(dst *[]event, src []event) {
	held := len(*dst)
	*dst = append((*dst)[:0], src...)
	if held > len(src) {
		clear((*dst)[len(src):held])
	}
}

// copyLanes makes *dst a copy of src, reusing its arrays, and returns
// the number of events copied.
func copyLanes(dst *[]lane, src []lane) (n int) {
	lanes := *dst
	if len(src) > cap(lanes) {
		lanes = append(lanes[:cap(lanes)], make([]lane, len(src)-cap(lanes))...)
	}
	lanes = lanes[:max(len(src), len(lanes))]
	for i := range lanes {
		var from lane
		if i < len(src) {
			from = src[i]
		}
		if lanes[i].d = from.d; len(lanes[i].events)+len(from.events) > 0 {
			assign(&lanes[i].events, from.events)
			n += len(from.events)
		}
	}
	*dst = lanes[:len(src)]
	return n
}

// Kernel is a single-threaded discrete-event scheduler.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now    Time
	seq    uint64
	events eventHeap
	lanes  []lane // the pending events are the heap's and the lanes'
	procs  []*Proc

	// chooser, when set, picks the next event among every pending one;
	// nil keeps the (time, sequence) order with zero overhead.
	chooser Chooser

	// fixed counts the lanes' events: at zero Step reads the heap alone.
	fixed int
	// executed counts events dispatched, for diagnostics and tests.
	executed uint64
	// dispatching is the tag of the event being dispatched (Dispatching).
	dispatching any

	// scratch buffers reused by choose, which runs once per kernel
	// step under a model checker and must not allocate.
	ordered []scratchEvent
	cands   []Candidate
}

// scratchEvent pairs an event with its current position (lane -1 is the
// heap), so choose can remove the chosen event by index instead of
// scanning for its sequence number.
type scratchEvent struct {
	event
	lane, idx int
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// KernelState is a caller-owned buffer holding a kernel at a step
// boundary: the clock, the sequence counter and every pending event,
// heap and lanes, with its closure and tag. Save fills it and keeps its
// capacity, so one buffer serves many saves.
type KernelState struct {
	now    Time
	seq    uint64
	events []event
	lanes  []lane
}

// Save copies the kernel's clock, sequence counter and pending events,
// heap and lanes, into st. The events keep their closures: a saved state
// is only good for rewinding the kernel it was taken from, and only if
// restoring the data those closures read restores what they will do —
// the caller's obligation. The chooser and the dispatch counter are not
// part of it. Call it between steps (a Chooser's Choose counts: choose
// consults it before touching the pending set or the clock). A kernel
// with processes has goroutines parked mid-program, which a copy does
// not capture, so it panics.
func (k *Kernel) Save(st *KernelState) {
	if len(k.procs) > 0 {
		panic("sim: Save of a kernel with processes")
	}
	st.now, st.seq = k.now, k.seq
	assign(&st.events, k.events)
	copyLanes(&st.lanes, k.lanes)
}

// Load rewinds the kernel to a state Save took from it: same clock, same
// sequence counter, the same events in the same heap and lane positions.
// The chooser stays installed. Executed restarts at zero — it counts the
// events this kernel really dispatched since it was built or last
// loaded, which is what a harness timing a run wants to read.
func (k *Kernel) Load(st *KernelState) {
	k.now, k.seq = st.now, st.seq
	assign((*[]event)(&k.events), st.events)
	k.fixed = copyLanes(&k.lanes, st.lanes)
	k.executed = 0
}

// Now reports the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of events waiting to run.
func (k *Kernel) Pending() int { return len(k.events) + k.fixed }

// Executed reports the number of events dispatched since the kernel was
// built or Loaded: host work done, not a position in simulated history.
func (k *Kernel) Executed() uint64 { return k.executed }

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) panics: it always indicates a modeling bug.
func (k *Kernel) At(t Time, fn func()) { k.AtTagged(t, nil, fn) }

// AtTagged is At with a scheduling tag attached to the event, identifying
// it to a Chooser and to state-fingerprinting code.
func (k *Kernel) AtTagged(t Time, tag any, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	k.events.push(event{at: t, seq: k.seq, fn: fn, tag: tag})
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// AfterTagged is After with a scheduling tag.
func (k *Kernel) AfterTagged(d Time, tag any, fn func()) { k.AtTagged(k.now+d, tag, fn) }

// AfterFixed is AfterTagged for a delay that is one of a few constants,
// a bus occupancy or a device latency: the event joins the FIFO lane of
// its delay instead of the heap. The clock never goes back and the
// sequence counter only rises, so a lane's FIFO order is its (time,
// sequence) order. Delays past the first maxLanes share the heap.
func (k *Kernel) AfterFixed(d Time, tag any, fn func()) {
	i := 0
	for i < len(k.lanes) && k.lanes[i].d != d {
		i++
	}
	if i == maxLanes {
		k.AfterTagged(d, tag, fn)
		return
	}
	if i == len(k.lanes) {
		k.lanes = slices.Grow(k.lanes, 1)[:i+1] // reuses a lane a Load dropped
		k.lanes[i].d = d
	}
	k.seq++
	k.fixed++
	k.lanes[i].events = append(k.lanes[i].events, event{at: k.now + d, seq: k.seq, fn: fn, tag: tag})
}

// first returns the earliest pending event, nil if there is none, and
// the lane it heads (-1: it is the heap's top).
func (k *Kernel) first() (int, *event) {
	l, e := -1, (*event)(nil)
	if len(k.events) > 0 {
		e = &k.events[0]
	}
	for i := 0; k.fixed > 0 && i < len(k.lanes); i++ {
		if h := k.lanes[i].events; len(h) > 0 && (e == nil || h[0].before(e)) {
			l, e = i, &h[0]
		}
	}
	return l, e
}

// queue returns the pending events of lane l, or the heap's for l = -1.
func (k *Kernel) queue(l int) []event {
	if l < 0 {
		return k.events
	}
	return k.lanes[l].events
}

// take removes the event at position i of lane l, or of the heap.
func (k *Kernel) take(l, i int) {
	if l < 0 {
		k.events.remove(i)
		return
	}
	k.fixed--
	k.lanes[l].remove(i)
}

// SetChooser routes event dispatch order through ch (nil restores the
// (time, sequence) order). Every pending event is a candidate: the
// untimed interpretation under which a model checker explores all
// message orderings regardless of latency constants. Dispatching a later
// event advances the clock past it, and an earlier one dispatched after
// it leaves the clock where it is, so time stays monotonic.
func (k *Kernel) SetChooser(ch Chooser) { k.chooser = ch }

// ForEachPending visits every pending event's (time, tag) in scheduling
// order. Model checkers include the pending set in state fingerprints.
func (k *Kernel) ForEachPending(fn func(at Time, tag any)) {
	for _, e := range k.sorted() {
		fn(e.at, e.tag)
	}
}

// sorted copies the pending events, each with its position, into the
// kernel's scratch buffer in (time, sequence) order. A Chooser may come
// back here through ForEachPending while choose still reads the buffer:
// nothing pending has moved, so it is rewritten with what it holds.
func (k *Kernel) sorted() []scratchEvent {
	ordered := k.ordered[:0]
	for l := -1; l < len(k.lanes); l++ {
		evs := k.queue(l)
		for i := range evs {
			ordered = append(ordered, scratchEvent{event: evs[i], lane: l, idx: i})
		}
	}
	sortEvents(ordered)
	k.ordered = ordered
	return ordered
}

// ForEachPendingTag visits every pending event's tag in arbitrary
// (heap, then lane) order without allocating. Callers that need a
// deterministic combination must make their per-event contribution
// order-insensitive, e.g. by sorting derived hashes.
func (k *Kernel) ForEachPendingTag(fn func(tag any)) {
	for l := -1; l < len(k.lanes); l++ {
		evs := k.queue(l)
		for i := range evs {
			fn(evs[i].tag) // one call site, so that fn can be inlined here
		}
	}
}

// Dispatching returns the tag of the event whose body is running: in
// effect the body's argument. A component that schedules many events
// with one body, built at construction, tells them apart by it and
// allocates no closure per event. Outside an event body it is stale.
func (k *Kernel) Dispatching() any { return k.dispatching }

// Step dispatches one event — the single earliest, or the chooser's pick
// among every pending event when a Chooser is installed. It reports false
// when no events remain.
func (k *Kernel) Step() bool {
	var e event
	if k.chooser != nil {
		if k.Pending() == 0 {
			return false
		}
		e = k.choose()
	} else if l, top := k.first(); top != nil {
		e = *top
		k.take(l, 0)
	} else {
		return false
	}
	k.now = max(k.now, e.at) // a chooser may have run a later event
	k.executed++
	k.dispatching = e.tag
	e.fn()
	return true
}

// choose removes the event the chooser picks and reports it to a
// DispatchObserver. Candidates are presented in (time, sequence) order,
// so choice 0 is exactly the event the default path would dispatch.
func (k *Kernel) choose() event {
	ordered := k.sorted()
	n := len(ordered)
	idx := 0
	if n > 1 {
		cands := k.cands[:0]
		for _, e := range ordered {
			cands = append(cands, Candidate{Tag: e.tag})
		}
		k.cands = cands
		idx = k.chooser.Choose(ChoicePoint{Kind: "sched"}, cands)
		if idx < 0 || idx >= n {
			panic(fmt.Sprintf("sim: chooser picked %d of %d candidates", idx, n))
		}
	}
	e := ordered[idx]
	// The scratch copy recorded each event's live position, and nothing
	// has moved since, so removal is by index instead of the historical
	// O(pending) scan by sequence number.
	k.take(e.lane, e.idx)
	if obs, ok := k.chooser.(DispatchObserver); ok {
		obs.Dispatched(e.tag)
	}
	return e.event
}

// sortEvents orders the scratch copy by (at, seq) without the
// interface boxing of sort.Sort: candidate sets are small, so an
// insertion sort wins and allocates nothing.
func sortEvents(evs []scratchEvent) {
	for i := 1; i < len(evs); i++ {
		e := evs[i]
		j := i
		for j > 0 && e.before(&evs[j-1].event) {
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
	for _, e := k.first(); e != nil && e.at <= t; _, e = k.first() {
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// RunFor runs the simulation for d nanoseconds of simulated time.
func (k *Kernel) RunFor(d Time) { k.RunUntil(k.now + d) }
