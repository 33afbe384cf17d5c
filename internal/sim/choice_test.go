package sim

import (
	"reflect"
	"testing"
)

// firstChooser always picks the first candidate: the earliest event.
type firstChooser struct{}

func (firstChooser) Choose(ChoicePoint, []Candidate) int { return 0 }

// lastChooser always picks the final candidate.
type lastChooser struct{ points int }

func (c *lastChooser) Choose(cp ChoicePoint, cands []Candidate) int {
	c.points++
	return len(cands) - 1
}

func tieRun(t *testing.T, ch Chooser) []string {
	t.Helper()
	k := NewKernel()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.AtTagged(10, name, func() { order = append(order, name) })
	}
	k.At(5, func() { order = append(order, "early") })
	k.SetChooser(ch)
	k.Run()
	return order
}

func TestDefaultChooserMatchesUnseamedOrder(t *testing.T) {
	want := tieRun(t, nil)
	got := tieRun(t, firstChooser{})
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("first-candidate order %v != unseamed order %v", got, want)
	}
	if !reflect.DeepEqual(want, []string{"early", "a", "b", "c"}) {
		t.Fatalf("unseamed order = %v, want early,a,b,c", want)
	}
}

func TestAllEventsModeReordersAcrossTime(t *testing.T) {
	k := NewKernel()
	var order []string
	k.AtTagged(5, "early", func() { order = append(order, "early") })
	k.AtTagged(10, "late", func() { order = append(order, "late") })
	k.SetChooser(&lastChooser{})
	if !k.Step() {
		t.Fatal("no event dispatched")
	}
	if len(order) != 1 || order[0] != "late" {
		t.Fatalf("first dispatch = %v, want late", order)
	}
	if k.Now() != 10 {
		t.Fatalf("clock = %v after firing t=10 event, want 10", k.Now())
	}
	k.Step()
	if k.Now() != 10 {
		t.Fatalf("clock = %v after firing stale t=5 event, want to stay 10", k.Now())
	}
	if !reflect.DeepEqual(order, []string{"late", "early"}) {
		t.Fatalf("order = %v, want late,early", order)
	}
}

func TestForEachPendingOrder(t *testing.T) {
	k := NewKernel()
	k.AtTagged(20, "b", func() {})
	k.AtTagged(10, "a", func() {})
	k.AtTagged(20, "c", func() {})
	var tags []string
	k.ForEachPending(func(at Time, tag any) { tags = append(tags, tag.(string)) })
	if !reflect.DeepEqual(tags, []string{"a", "b", "c"}) {
		t.Fatalf("pending order = %v, want a,b,c", tags)
	}
}
