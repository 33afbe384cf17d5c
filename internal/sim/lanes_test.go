package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// refEvent is an event of the reference model: the kernel's pending set
// as a plain slice, dispatched by (at, seq) with no heap and no lanes.
type refEvent struct {
	at  Time
	seq uint64
}

// bodyPlan is what the body of an event does in a fuzzed program: it
// schedules each of its children after delay d, into a lane if fixed,
// and calls Pending before and after each of them and
// ForEachPendingTag after the first look of them (never if look is
// past the last).
type bodyPlan struct {
	children []refChild
	look     int
}

type refChild struct {
	d     Time
	fixed bool
}

type refKernel struct {
	now    Time
	seq    uint64
	events []refEvent
	// plan is every event body's program; entry and born record, for
	// each dispatched event, the pending set its body starts from (by
	// seq) and the events it schedules, for the kernel's body to hold
	// its own reads to.
	plan        func(seq uint64) bodyPlan
	entry, born map[uint64][]uint64
}

func newRefKernel(plan func(uint64) bodyPlan) *refKernel {
	return &refKernel{plan: plan, entry: map[uint64][]uint64{}, born: map[uint64][]uint64{}}
}

// clone copies the clock, the counter and the pending set; the records
// are shared, since a seq dispatched again has the same body.
func (r *refKernel) clone() *refKernel {
	c := *r
	c.events = slices.Clone(r.events)
	return &c
}

func (r *refKernel) schedule(d Time) uint64 {
	r.seq++
	r.events = append(r.events, refEvent{r.now + d, r.seq})
	return r.seq
}

// sorted returns the pending events in (at, seq) order.
func (r *refKernel) sorted() []refEvent {
	s := slices.Clone(r.events)
	slices.SortFunc(s, func(a, b refEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	return s
}

// step dispatches what the kernel would: the earliest event, or with a
// chooser the pick'th pending event (pick taken modulo their number).
// Then it runs the event's body: the pending set it starts from is
// recorded, and its children are scheduled.
func (r *refKernel) step(chosen bool, pick int) uint64 {
	s := r.sorted()
	e := s[0]
	if chosen {
		e = s[pick%len(s)]
	}
	r.events = slices.DeleteFunc(r.events, func(x refEvent) bool { return x.seq == e.seq })
	r.now = max(r.now, e.at)
	var entry []uint64
	for _, x := range r.events {
		entry = append(entry, x.seq)
	}
	slices.Sort(entry)
	r.entry[e.seq] = entry
	var born []uint64
	for _, c := range r.plan(e.seq).children {
		born = append(born, r.schedule(c.d))
	}
	r.born[e.seq] = born
	return e.seq
}

// pickChooser picks candidate pick modulo their number.
type pickChooser struct{ pick int }

func (c *pickChooser) Choose(_ ChoicePoint, cands []Candidate) int { return c.pick % len(cands) }

// FuzzKernelOrder runs random programs of AfterTagged, AfterFixed (more
// distinct delays than there are lanes, 0 among them, on the same grid
// as the heap's so that times tie), Step, RunUntil, Save, Load and a
// chooser that picks any candidate, and holds the dispatch sequence,
// the clock and the pending set to the reference model's. Event bodies
// schedule too — none, one or two events each, to the heap or a lane —
// so a body's first heap event takes the slot its own event held, and
// each body reads Pending and ForEachPendingTag at a point of its plan
// (before, between or after its children) and holds them to the model.
func FuzzKernelOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		prog := make([]byte, 64+rng.Intn(400))
		rng.Read(prog)
		f.Add(prog)
	}
	// Bursts of equal-time heap events grow the heap past its three full
	// 4-ary levels (85 events) to a last family of one, two and three
	// children; then every event runs, each body scheduling what its
	// plan says, so sifts cross every partial family on the way down.
	for _, n := range []int{86, 87, 88} {
		var prog []byte
		for i := range n {
			prog = append(prog, 10, byte(i/8*5%8)) // a burst of 8 per time
		}
		for range 3 * n {
			prog = append(prog, 15, 0)
		}
		f.Add(prog)
	}
	fixed := []Time{0, 5, 10, 15, 20, 30}
	f.Fuzz(func(t *testing.T, prog []byte) {
		// A body's plan is read from the input at a place its seq picks;
		// events past len(input) schedule nothing, which bounds the
		// cascade.
		input := prog
		plan := func(seq uint64) bodyPlan {
			n := uint64(len(input))
			if seq > n {
				return bodyPlan{}
			}
			a, b := input[seq*7%n], input[(seq*7+3)%n]
			p := bodyPlan{look: int(a/3) % 4}
			for i := range int(a % 3) {
				c := refChild{fixed: b>>i&1 != 0}
				if x := int(b>>(2+3*i)) & 7; c.fixed {
					c.d = fixed[x%len(fixed)]
				} else {
					c.d = Time(x) * 5
				}
				p.children = append(p.children, c)
			}
			return p
		}
		k, ref := NewKernel(), newRefKernel(plan)
		ch := &pickChooser{}
		var chosen bool
		var got, want []uint64
		var st KernelState
		var saved *refKernel
		// body is the kernel's side of event seq: it checks its reads
		// against what the model recorded when it dispatched seq and
		// schedules the children the model did, under the model's seqs.
		var body func(seq uint64) func()
		body = func(seq uint64) func() {
			return func() {
				// The model dispatched first, so a wrong dispatch
				// shows here, before its body can schedule anything.
				if got = append(got, seq); len(got) > len(want) || want[len(got)-1] != seq {
					t.Fatalf("the kernel dispatched\n%v\nthe model\n%v", got, want)
				}
				p := plan(seq)
				pending := slices.Clone(ref.entry[seq])
				for i := 0; ; i++ {
					if k.Pending() != len(pending) {
						t.Fatalf("event %d's body, %d children in: Pending() = %d, the model's %d", seq, i, k.Pending(), len(pending))
					}
					if i == p.look {
						var tags []uint64
						k.ForEachPendingTag(func(tag any) { tags = append(tags, tag.(uint64)) })
						if slices.Sort(tags); !slices.Equal(tags, pending) {
							t.Fatalf("event %d's body, %d children in: pending tags %v, the model's %v", seq, i, tags, pending)
						}
					}
					if i == len(p.children) {
						return
					}
					c, s := p.children[i], ref.born[seq][i]
					if c.fixed {
						k.AfterFixed(c.d, s, body(s))
					} else {
						k.AfterTagged(c.d, s, body(s))
					}
					pending = append(pending, s)
				}
			}
		}
		for ; len(prog) >= 2; prog = prog[2:] {
			arg := int(prog[1])
			ch.pick = arg
			switch prog[0] % 10 {
			case 0, 1:
				d := Time(arg%8) * 5
				seq := ref.schedule(d)
				k.AfterTagged(d, seq, body(seq))
			case 2, 3, 4:
				d := fixed[arg%len(fixed)]
				seq := ref.schedule(d)
				k.AfterFixed(d, seq, body(seq))
			case 5, 6:
				more := len(ref.events) > 0
				if more {
					want = append(want, ref.step(chosen, arg))
				}
				if k.Step() != more {
					t.Fatalf("Step reported %v with %d pending in the model", !more, len(ref.events))
				}
			case 7:
				until := ref.now + Time(arg%16)*5
				for s := ref.sorted(); len(s) > 0 && s[0].at <= until; s = ref.sorted() {
					want = append(want, ref.step(chosen, arg))
				}
				ref.now = max(ref.now, until)
				k.RunUntil(until)
			case 8:
				if arg%2 == 0 {
					k.Save(&st)
					saved = ref.clone()
				} else if saved != nil {
					k.Load(&st)
					ref = saved.clone()
				}
			case 9:
				if chosen = arg%2 != 0; chosen {
					k.SetChooser(ch)
				} else {
					k.SetChooser(nil)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("the kernel dispatched\n%v\nthe model\n%v", got, want)
			}
			if k.Now() != ref.now || k.Pending() != len(ref.events) {
				t.Fatalf("kernel now=%v pending=%d, model now=%v pending=%d", k.Now(), k.Pending(), ref.now, len(ref.events))
			}
			// Reading the pending set ends a body's hold on the heap's
			// top, so it is skipped after some operations: a Save or a
			// Load may then come right after a Step.
			if prog[0]/10%4 == 0 {
				continue
			}
			var pending []refEvent
			k.ForEachPending(func(at Time, tag any) { pending = append(pending, refEvent{at, tag.(uint64)}) })
			if !slices.Equal(pending, ref.sorted()) {
				t.Fatalf("pending %v, the model's %v", pending, ref.sorted())
			}
		}
	})
}

// TestLanesAllocateNothing: a dispatch advances its lane's head instead
// of moving the remaining events down, and a lane whose array is full
// moves its pending events to the front of the array before appending,
// so in steady state — which compacts — scheduling and dispatching
// fixed-delay events allocates nothing; a Load reuses the arrays of the
// lanes it overwrites. Every slot of a lane's array outside its pending
// events is zero: a dispatched event's closure is not kept alive.
func TestLanesAllocateNothing(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	delays := []Time{50, 750, 850}
	for i := 0; i < 48; i++ {
		k.AfterFixed(delays[i%3], nil, fn)
	}
	var st KernelState
	k.Save(&st)
	round := func() {
		for i := 0; i < 3*64; i++ {
			k.AfterFixed(delays[i%3], nil, fn)
			k.Step()
		}
	}
	round() // warm-up: the arrays reach their size
	heads := 0
	checkSlots := func(when string) {
		t.Helper()
		for _, l := range k.lanes {
			all := l.events[:cap(l.events)]
			for i := range all {
				if pending := i >= l.head && i < len(l.events); !pending && (all[i].fn != nil || all[i].tag != nil || all[i].at != 0 || all[i].seq != 0) {
					t.Fatalf("%s: lane %v slot %d of %d (pending %d to %d) still holds an event", when, l.d, i, len(all), l.head, len(l.events))
				}
			}
			heads += l.head
		}
	}
	for i := 0; i < 100; i++ {
		round()
		checkSlots("after a round")
	}
	if heads == 0 {
		t.Fatal("no lane ever had its head past the front of its array")
	}
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("AfterFixed + Step allocated %v objects a round", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { round(); k.Load(&st) }); allocs != 0 {
		t.Errorf("a round and a Load allocated %v objects", allocs)
	}
	checkSlots("after a Load")
}

// TestRescheduleAllocatesNothing: a body that schedules its successor
// through After writes it into the heap slot its own event held, so at a
// depth of 64 pending events a rescheduling dispatch allocates nothing.
func TestRescheduleAllocatesNothing(t *testing.T) {
	k := NewKernel()
	x := uint64(1)
	var fn func()
	fn = func() {
		x = x*6364136223846793005 + 1442695040888963407
		k.After(Time(x>>54), fn) // 0 to 1023 ns, ties included
	}
	for i := 0; i < 64; i++ {
		k.After(Time(i), fn)
	}
	step := func() { k.Step() }
	step()
	if allocs := testing.AllocsPerRun(10000, step); allocs != 0 {
		t.Errorf("a rescheduling Step allocated %v objects", allocs)
	}
	if k.Pending() != 64 {
		t.Errorf("Pending() = %d, want 64", k.Pending())
	}
}
