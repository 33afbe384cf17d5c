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

type refKernel struct {
	now    Time
	seq    uint64
	events []refEvent
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
// chooser the pick'th candidate (pick taken modulo their number) among
// the earliest-time ties or, with allEvents, among every pending event.
func (r *refKernel) step(chosen, allEvents bool, pick int) uint64 {
	s := r.sorted()
	n := 1
	if chosen {
		for n < len(s) && (allEvents || s[n].at == s[0].at) {
			n++
		}
	}
	e := s[0]
	if n > 1 {
		e = s[pick%n]
	}
	r.events = slices.DeleteFunc(r.events, func(x refEvent) bool { return x.seq == e.seq })
	r.now = max(r.now, e.at)
	return e.seq
}

// pickChooser picks candidate pick modulo their number.
type pickChooser struct{ pick int }

func (c *pickChooser) Choose(_ ChoicePoint, cands []Candidate) int { return c.pick % len(cands) }

// FuzzKernelOrder runs random programs of AfterTagged, AfterFixed (more
// distinct delays than there are lanes, 0 among them, on the same grid
// as the heap's so that times tie), Step, RunUntil, Save, Load and a
// chooser that picks any candidate, and holds the dispatch sequence,
// the clock and the pending set to the reference model's.
func FuzzKernelOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		prog := make([]byte, 64+rng.Intn(400))
		rng.Read(prog)
		f.Add(prog)
	}
	fixed := []Time{0, 5, 10, 15, 20, 30}
	f.Fuzz(func(t *testing.T, prog []byte) {
		k, ref := NewKernel(), &refKernel{}
		ch := &pickChooser{}
		var chosen, allEvents bool
		var got, want []uint64
		var st KernelState
		var saved *refKernel
		for ; len(prog) >= 2; prog = prog[2:] {
			arg := int(prog[1])
			ch.pick = arg
			switch prog[0] % 10 {
			case 0, 1:
				d := Time(arg%8) * 5
				seq := ref.schedule(d)
				k.AfterTagged(d, seq, func() { got = append(got, seq) })
			case 2, 3, 4:
				d := fixed[arg%len(fixed)]
				seq := ref.schedule(d)
				k.AfterFixed(d, seq, func() { got = append(got, seq) })
			case 5, 6:
				more := len(ref.events) > 0
				if more {
					want = append(want, ref.step(chosen, allEvents, arg))
				}
				if k.Step() != more {
					t.Fatalf("Step reported %v with %d pending in the model", !more, len(ref.events))
				}
			case 7:
				until := ref.now + Time(arg%16)*5
				for s := ref.sorted(); len(s) > 0 && s[0].at <= until; s = ref.sorted() {
					want = append(want, ref.step(chosen, allEvents, arg))
				}
				ref.now = max(ref.now, until)
				k.RunUntil(until)
			case 8:
				if arg%2 == 0 {
					k.Save(&st)
					saved = &refKernel{ref.now, ref.seq, slices.Clone(ref.events)}
				} else if saved != nil {
					k.Load(&st)
					ref = &refKernel{saved.now, saved.seq, slices.Clone(saved.events)}
				}
			case 9:
				chosen, allEvents = arg%3 != 0, arg%3 == 2
				if chosen {
					k.SetChooser(ch, allEvents)
				} else {
					k.SetChooser(nil, false)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("the kernel dispatched\n%v\nthe model\n%v", got, want)
			}
			if k.Now() != ref.now || k.Pending() != len(ref.events) {
				t.Fatalf("kernel now=%v pending=%d, model now=%v pending=%d", k.Now(), k.Pending(), ref.now, len(ref.events))
			}
			var pending []refEvent
			k.ForEachPending(func(at Time, tag any) { pending = append(pending, refEvent{at, tag.(uint64)}) })
			if !slices.Equal(pending, ref.sorted()) {
				t.Fatalf("pending %v, the model's %v", pending, ref.sorted())
			}
		}
	})
}

// TestLanesAllocateNothing: a dispatch moves a lane's remaining events
// down instead of walking off the front of its array, and a Load reuses
// the arrays of the lanes it overwrites, so in steady state scheduling
// and dispatching fixed-delay events allocates nothing.
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
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("AfterFixed + Step allocated %v objects a round", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { round(); k.Load(&st) }); allocs != 0 {
		t.Errorf("a round and a Load allocated %v objects", allocs)
	}
}
