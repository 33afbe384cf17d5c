package bus

import (
	"testing"

	"multicube/internal/sim"
)

type tpkt struct {
	name string
	occ  sim.Time
}

func (p tpkt) Occupancy() sim.Time { return p.occ }
func (p tpkt) String() string      { return p.name }

type snoopSink struct{ order []string }

func (r *snoopSink) Probe(b *Bus, p Packet) {}
func (r *snoopSink) Snoop(b *Bus, p Packet) { r.order = append(r.order, p.(tpkt).name) }

// grantFirst always grants the first candidate: the policy's own pick.
type grantFirst struct{}

func (grantFirst) Choose(sim.ChoicePoint, []sim.Candidate) int { return 0 }

// grantLast always grants the last candidate (the most recently waiting
// source).
type grantLast struct{ points int }

func (c *grantLast) Choose(cp sim.ChoicePoint, cands []sim.Candidate) int {
	if cp.Kind == "grant" {
		c.points++
		return len(cands) - 1
	}
	return 0
}

// deliver drives a bus with three same-instant requesters and returns the
// delivery order.
func deliver(t *testing.T, ch sim.Chooser) []string {
	t.Helper()
	k := sim.NewKernel()
	b := New(k, "row0", FIFO)
	rec := &snoopSink{}
	srcs := make([]int, 3)
	for i := range srcs {
		srcs[i] = b.Attach(rec)
	}
	b.SetChooser(ch)
	k.At(0, func() {
		for i, src := range srcs {
			b.Request(src, tpkt{name: string(rune('a' + i)), occ: 10})
		}
	})
	k.Run()
	// Every attached agent snoops each delivery; collapse the runs.
	var order []string
	for _, name := range rec.order {
		if len(order) == 0 || order[len(order)-1] != name {
			order = append(order, name)
		}
	}
	return order
}

func TestChooserArbitration(t *testing.T) {
	base := deliver(t, nil)
	// A chooser defers grants, so all three same-instant requests reach
	// arbitration and even the first grant is a choice.
	if got := deliver(t, &grantLast{}); !equal(got, []string{"c", "b", "a"}) {
		t.Fatalf("deferred grant-last order = %v, want c,b,a", got)
	}
	if got := deliver(t, grantFirst{}); !equal(got, base) {
		t.Fatalf("deferred grant-first order %v != policy order %v", got, base)
	}
}

func TestPerSourceOrderPreserved(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "col0", FIFO)
	rec := &snoopSink{}
	s0 := b.Attach(rec)
	s1 := b.Attach(rec)
	b.SetChooser(&grantLast{})
	k.At(0, func() {
		b.Request(s0, tpkt{name: "a1", occ: 10})
		b.Request(s0, tpkt{name: "a2", occ: 10})
		b.Request(s1, tpkt{name: "b1", occ: 10})
	})
	k.Run()
	// Only queue heads are candidates: a2 can never be granted before a1.
	for i, name := range rec.order {
		if name == "a2" {
			for _, prev := range rec.order[:i] {
				if prev == "a1" {
					return
				}
			}
			t.Fatalf("a2 delivered before a1: %v", rec.order)
		}
	}
}

func TestForEachQueuedAndInflight(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "row0", FIFO)
	rec := &snoopSink{}
	src := b.Attach(rec)
	k.At(0, func() {
		b.Request(src, tpkt{name: "x", occ: 10})
		b.Request(src, tpkt{name: "y", occ: 10})
	})
	k.RunUntil(5)
	if b.Inflight() == nil || b.Inflight().(tpkt).name != "x" {
		t.Fatalf("inflight = %v, want x", b.Inflight())
	}
	var queued []string
	b.ForEachQueued(func(src int, p Packet) { queued = append(queued, p.(tpkt).name) })
	if len(queued) != 1 || queued[0] != "y" {
		t.Fatalf("queued = %v, want [y]", queued)
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
