package mc

import (
	"reflect"
	"testing"
)

// deepRun fabricates the work item and the outcome of a run depth choice
// points into a path: started from a boundary two points before the end
// of the item's script, it resolved those two and then three points of
// its own, each with three candidates.
func deepRun(depth int) (workItem, runOut) {
	it := workItem{prefix: make([]int, depth-1), last: 2, scripted: depth}
	for i := range it.prefix {
		it.prefix[i] = i % 3
	}
	r := runOut{covered: depth - 2, taken: []take{
		{pick: it.pick(depth - 2), n: 3}, {pick: 2, n: 3},
		{pick: 0, n: 3}, {pick: 1, n: 1}, {pick: 0, n: 3}, {pick: 0, n: 3},
	}}
	return it, r
}

// TestSiblingsShareTheirPrefix: the branches a run leaves hold slices of
// one copy of its choices, each child's sequence is what a copy of its own
// would have been, and neither spawning them nor starting a run costs
// allocations that grow with the depth of the path.
func TestSiblingsShareTheirPrefix(t *testing.T) {
	e := &explorer{n: 3}
	it, r := deepRun(200)
	kids := e.children(it, r)
	if len(kids) != 6 {
		t.Fatalf("%d children, want two at each of three choice points", len(kids))
	}
	path := choicesOf(&it, r.covered, r.taken)
	for i, kid := range kids {
		p := []int{203, 202, 200}[i/2] // deepest point first; point 201 had one candidate
		want := append(append([]int(nil), path[:p]...), 2-i%2)
		if got := choicesOf(&kid, kid.scripted, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("child %d: choices %v, want %v", i, got[195:], want[195:])
		}
		if &kid.prefix[0] != &kids[0].prefix[0] {
			t.Fatalf("child %d has a prefix array of its own", i)
		}
		if cap(kid.prefix) != len(kid.prefix) {
			t.Fatalf("child %d could append into its siblings' prefix", i)
		}
	}

	shallowIt, shallowR := deepRun(3)
	deep := testing.AllocsPerRun(50, func() { e.children(it, r) })
	shallow := testing.AllocsPerRun(50, func() { e.children(shallowIt, shallowR) })
	if deep != shallow {
		t.Fatalf("children allocates %v times at depth 200, %v at depth 3", deep, shallow)
	}
	ch := &mcChooser{n: 3}
	if n := testing.AllocsPerRun(50, func() { ch.start(it, 0, r.covered) }); n != 0 {
		t.Fatalf("start allocates %v times on a depth-200 item", n)
	}
	if ch.pos() != r.covered || ch.item.scripted != 200 {
		t.Fatalf("start at point %d of %d scripted, want %d of 200", ch.pos(), ch.item.scripted, r.covered)
	}
}
