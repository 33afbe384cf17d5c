package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, at := range []Time{30, 10, 20, 5, 25} {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	k.Run()
	want := []Time{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d ran at %v, want %v", i, got[i], want[i])
		}
	}
	if k.Now() != 30 {
		t.Errorf("final time %v, want 30", k.Now())
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(100, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	k := NewKernel()
	var fired Time
	k.At(50, func() {
		k.After(25, func() { fired = k.Now() })
	})
	k.Run()
	if fired != 75 {
		t.Fatalf("After fired at %v, want 75", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	k.Run()
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	k := NewKernel()
	ran := map[Time]bool{}
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.At(at, func() { ran[at] = true })
	}
	// The same from a lane: a fixed delay's events are pending too.
	for _, at := range []Time{25, 31} {
		at := at
		k.AfterFixed(at, nil, func() { ran[at] = true })
	}
	k.RunUntil(25)
	if !ran[10] || !ran[20] || !ran[25] {
		t.Error("events at or before 25 did not run")
	}
	if ran[30] || ran[31] || ran[40] {
		t.Error("events after 25 ran early")
	}
	if k.Now() != 25 {
		t.Errorf("Now() = %v, want 25", k.Now())
	}
	// Inclusive boundary.
	k.RunUntil(30)
	if !ran[30] || ran[31] {
		t.Error("event at exactly 30 did not run on RunUntil(30), or the one at 31 did")
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	k := NewKernel()
	k.RunFor(100)
	if k.Now() != 100 {
		t.Fatalf("Now() = %v, want 100", k.Now())
	}
	k.RunFor(50)
	if k.Now() != 150 {
		t.Fatalf("Now() = %v, want 150", k.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	k := NewKernel()
	if k.Step() {
		t.Fatal("Step on empty kernel returned true")
	}
	k.At(1, func() {})
	if !k.Step() {
		t.Fatal("Step with pending event returned false")
	}
	if k.Executed() != 1 {
		t.Fatalf("Executed() = %d, want 1", k.Executed())
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain where each event schedules the next; the kernel must
	// drain all of them.
	k := NewKernel()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 1000 {
			k.After(1, step)
		}
	}
	k.At(0, step)
	end := k.Run()
	if count != 1000 {
		t.Fatalf("ran %d chained events, want 1000", count)
	}
	if end != 999 {
		t.Fatalf("final time %v, want 999", end)
	}
}

// Property: for any set of scheduled times, events execute in sorted order
// and the kernel finishes at the maximum time.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		k := NewKernel()
		var got []Time
		for _, r := range raw {
			at := Time(r)
			k.At(at, func() { got = append(got, at) })
		}
		k.Run()
		if len(got) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		var max Time
		for _, r := range raw {
			if Time(r) > max {
				max = Time(r)
			}
		}
		return k.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two kernels fed the same randomized workload execute the same
// number of events and end at the same time (determinism).
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) (uint64, Time) {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		var schedule func()
		n := 0
		schedule = func() {
			n++
			if n > 500 {
				return
			}
			k.After(Time(rng.Intn(50)), schedule)
			if rng.Intn(2) == 0 {
				k.After(Time(rng.Intn(100)), func() {})
			}
		}
		k.At(0, schedule)
		end := k.Run()
		return k.Executed(), end
	}
	for seed := int64(0); seed < 20; seed++ {
		e1, t1 := run(seed)
		e2, t2 := run(seed)
		if e1 != e2 || t1 != t2 {
			t.Fatalf("seed %d: run1=(%d,%v) run2=(%d,%v)", seed, e1, t1, e2, t2)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3*Second + 250*Millisecond, "3.250s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", uint64(c.t), got, c.want)
		}
	}
}

// TestSaveLoadRewinds: a kernel saved between steps, run on, and loaded
// must dispatch from the save point exactly as it did the first time —
// same order, same clock, same tie-breaks among events scheduled after —
// with the chooser still installed, Executed restarted, and the events of
// the abandoned future gone.
func TestSaveLoadRewinds(t *testing.T) {
	k := NewKernel()
	k.SetChooser(firstChooser{})
	var log []string
	var spawn func(name string, depth int) func()
	spawn = func(name string, depth int) func() {
		return func() {
			log = append(log, fmt.Sprintf("%v %s", k.Now(), name))
			if depth > 0 {
				// Equal times on purpose, one from the heap and one from a
				// lane: the sequence counter breaks the tie.
				k.AfterTagged(10, name+"a", spawn(name+"a", depth-1))
				k.AfterFixed(10, name+"b", spawn(name+"b", depth-1))
			}
		}
	}
	k.AtTagged(0, "x", spawn("x", 3))
	k.AtTagged(5, "y", spawn("y", 3))
	for i := 0; i < 4; i++ {
		k.Step()
	}
	var st KernelState
	k.Save(&st)
	if k.fixed == 0 || len(k.events) == 0 {
		t.Fatalf("the save point has %d events in lanes and %d in the heap; it needs both", k.fixed, len(k.events))
	}
	now, pending, before := k.Now(), k.Pending(), len(log)
	var tags []any
	k.ForEachPending(func(_ Time, tag any) { tags = append(tags, tag) })

	k.Run()
	first := append([]string(nil), log[before:]...)
	if len(first) == 0 {
		t.Fatal("nothing ran after the save point")
	}
	for round := 0; round < 2; round++ {
		// The second round loads over a drained kernel, the first over one
		// whose buffer still holds the abandoned future's events.
		if round == 0 {
			k.At(k.Now()+1, func() { t.Error("an event of the abandoned future fired") })
		}
		k.Load(&st)
		if k.Now() != now || k.Pending() != pending || k.Executed() != 0 || k.chooser == nil {
			t.Fatalf("after Load: now=%v pending=%d executed=%d chooser=%v, saved at now=%v pending=%d",
				k.Now(), k.Pending(), k.Executed(), k.chooser, now, pending)
		}
		var got []any
		k.ForEachPending(func(_ Time, tag any) { got = append(got, tag) })
		if !reflect.DeepEqual(got, tags) {
			t.Fatalf("pending tags after Load %v, at the save %v", got, tags)
		}
		log = log[:before]
		k.Run()
		if again := log[before:]; !reflect.DeepEqual(again, first) {
			t.Fatalf("round %d: after Load the kernel ran\n%v\nthe first time\n%v", round, again, first)
		}
		if int(k.Executed()) != len(first) {
			t.Fatalf("Executed %d after Load and %d events; it counts from the Load", k.Executed(), len(first))
		}
	}
}

// TestSaveRefusesProcs: a parked goroutine is state a copy of the event
// heap does not capture.
func TestSaveRefusesProcs(t *testing.T) {
	k := NewKernel()
	k.Spawn("sleeper", func(p *Proc) { p.Sleep(100) })
	k.RunUntil(50)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Save of a kernel with a process did not panic")
			}
		}()
		k.Save(new(KernelState))
	}()
	k.Run()
}

// TestEventIs40Bytes holds the pending event to its four fields — time,
// sequence, body and tag — on 64-bit hosts: the heap every Step sifts and
// every Save and Load copies is an array of them.
func TestEventIs40Bytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are for 64-bit hosts")
	}
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Fatalf("sim.event is %d bytes, want 40", got)
	}
}
