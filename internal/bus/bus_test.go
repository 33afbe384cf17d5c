package bus

import (
	"reflect"
	"testing"

	"multicube/internal/sim"
)

type testPkt struct {
	id  int
	occ sim.Time
}

func (p testPkt) Occupancy() sim.Time { return p.occ }

// recorder is an agent that logs every snooped packet with its time.
type recorder struct {
	snoops []snooped
	probes int
}

type snooped struct {
	id int
	at sim.Time
}

func (r *recorder) Probe(b *Bus, pkt Packet) { r.probes++ }
func (r *recorder) Snoop(b *Bus, pkt Packet) {
	r.snoops = append(r.snoops, snooped{pkt.(testPkt).id, b.k.Now()})
}

func TestBroadcastReachesAllAgents(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "row0", FIFO)
	agents := []*recorder{{}, {}, {}}
	var ids []int
	for _, a := range agents {
		ids = append(ids, b.Attach(a))
	}
	if ids[0] != 0 || ids[2] != 2 {
		t.Fatalf("attach indices %v", ids)
	}
	b.Request(0, testPkt{id: 7, occ: 100})
	k.Run()
	for i, a := range agents {
		if len(a.snoops) != 1 || a.snoops[0].id != 7 {
			t.Errorf("agent %d snoops = %v", i, a.snoops)
		}
		if a.probes != 1 {
			t.Errorf("agent %d probes = %d, want 1", i, a.probes)
		}
	}
}

func TestDeliveryAtEndOfOccupancy(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "b", FIFO)
	r := &recorder{}
	b.Attach(r)
	b.Request(0, testPkt{id: 1, occ: 250})
	k.Run()
	if r.snoops[0].at != 250 {
		t.Fatalf("delivered at %v, want 250", r.snoops[0].at)
	}
}

func TestFIFOOrderAndSerialization(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "b", FIFO)
	r := &recorder{}
	b.Attach(r)
	b.Attach(&recorder{})
	// Two ops requested at time 0: they must serialize back to back.
	b.Request(0, testPkt{id: 1, occ: 100})
	b.Request(1, testPkt{id: 2, occ: 50})
	k.Run()
	if len(r.snoops) != 2 {
		t.Fatalf("snooped %d ops, want 2", len(r.snoops))
	}
	if r.snoops[0].id != 1 || r.snoops[0].at != 100 {
		t.Errorf("first = %+v, want id 1 at 100", r.snoops[0])
	}
	if r.snoops[1].id != 2 || r.snoops[1].at != 150 {
		t.Errorf("second = %+v, want id 2 at 150", r.snoops[1])
	}
	s := b.Stats()
	if s.Ops != 2 || s.BusyTime != 150 {
		t.Errorf("stats = %+v", s)
	}
	if s.WaitTime != 100 { // op 2 waited out op 1's occupancy
		t.Errorf("wait = %v, want 100", s.WaitTime)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "b", RoundRobin)
	r := &recorder{}
	b.Attach(r) // agent 0
	b.Attach(&recorder{})
	b.Attach(&recorder{})
	// Agent 0 floods; agents 1 and 2 each want one op. Round-robin must
	// interleave rather than serve agent 0's backlog first.
	b.Request(0, testPkt{id: 10, occ: 10})
	b.Request(0, testPkt{id: 11, occ: 10})
	b.Request(0, testPkt{id: 12, occ: 10})
	b.Request(1, testPkt{id: 20, occ: 10})
	b.Request(2, testPkt{id: 30, occ: 10})
	k.Run()
	var order []int
	for _, s := range r.snoops {
		order = append(order, s.id)
	}
	want := []int{10, 20, 30, 11, 12}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSnoopMayIssueFollowUp(t *testing.T) {
	// An agent that reacts to a request by issuing a reply on the same
	// bus: the reply must queue behind the request and complete later.
	k := sim.NewKernel()
	b := New(k, "b", FIFO)
	r := &recorder{}
	responder := &respondingAgent{}
	responder.id = b.Attach(responder)
	b.Attach(r)
	responder.bus = b
	b.Request(responder.id, testPkt{id: 1, occ: 100})
	k.Run()
	if len(r.snoops) != 2 {
		t.Fatalf("snooped %d, want request+reply", len(r.snoops))
	}
	if r.snoops[1].id != 99 || r.snoops[1].at != 200 {
		t.Errorf("reply = %+v, want id 99 at 200", r.snoops[1])
	}
}

type respondingAgent struct {
	bus     *Bus
	id      int
	replied bool
}

func (a *respondingAgent) Probe(b *Bus, pkt Packet) {}
func (a *respondingAgent) Snoop(b *Bus, pkt Packet) {
	if pkt.(testPkt).id == 1 && !a.replied {
		a.replied = true
		a.bus.Request(a.id, testPkt{id: 99, occ: 100})
	}
}

// sharedWire models the modified-signal line: one agent asserts during
// Probe; all agents observe the final value during Snoop.
type wirePkt struct {
	occ      sim.Time
	modified bool
}

func (p *wirePkt) Occupancy() sim.Time { return p.occ }

type asserter struct{}

func (asserter) Probe(b *Bus, pkt Packet) { pkt.(*wirePkt).modified = true }
func (asserter) Snoop(b *Bus, pkt Packet) {}

type observer struct{ saw bool }

func (o *observer) Probe(b *Bus, pkt Packet) {}
func (o *observer) Snoop(b *Bus, pkt Packet) { o.saw = pkt.(*wirePkt).modified }

func TestProbePhasePrecedesSnoop(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "b", FIFO)
	o := &observer{} // attached first, still sees the wire asserted
	b.Attach(o)
	b.Attach(asserter{})
	b.Request(0, &wirePkt{occ: 50})
	k.Run()
	if !o.saw {
		t.Fatal("observer did not see wire asserted by later-attached agent")
	}
}

func TestRequestFromUnknownAgentPanics(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "b", FIFO)
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown agent")
		}
	}()
	b.Request(3, testPkt{occ: 1})
}

func TestUtilization(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "b", FIFO)
	b.Attach(&recorder{})
	b.Request(0, testPkt{id: 1, occ: 100})
	k.Run()
	k.RunUntil(400)
	if got := b.Utilization(k.Now()); got != 0.25 {
		t.Errorf("utilization = %g, want 0.25", got)
	}
	if b.Utilization(0) != 0 {
		t.Error("zero elapsed should give zero utilization")
	}
}

func TestMaxQueuedHighWater(t *testing.T) {
	k := sim.NewKernel()
	b := New(k, "b", FIFO)
	b.Attach(&recorder{})
	for i := 0; i < 5; i++ {
		b.Request(0, testPkt{id: i, occ: 10})
	}
	k.Run()
	// First request is granted immediately, so at most 4 waited at once...
	// but the high-water mark counts queued-before-grant too: the first
	// request is dequeued synchronously, leaving 4 queued after the fifth
	// arrives.
	if got := b.Stats().MaxQueued; got != 4 {
		t.Errorf("MaxQueued = %d, want 4", got)
	}
}

// checkQueue requires what in-place dequeue promises of the queue: it
// stays at the front of its array (*capSeen, the capacity seen so far,
// never shrinks) and names no packet in the slots past its length — a
// granted operation is reachable only as Inflight. Load clears the queue
// whole, so it holds after it too.
func checkQueue(t *testing.T, b *Bus, capSeen *int, when string) {
	t.Helper()
	q := b.queue
	if cap(q) < *capSeen {
		t.Fatalf("%s: queue shrank from capacity %d to %d: sliced off the front of its array", when, *capSeen, cap(q))
	}
	*capSeen = cap(q)
	for j, p := range q[len(q):cap(q)] {
		if p != (pending{}) {
			t.Fatalf("%s: queue of length %d still names %+v in slot %d", when, len(q), p, len(q)+j)
		}
	}
}

// TestSaveLoadRewinds saves a bus (with its kernel) at every step of a
// contended run — requests queued, an operation in flight, a deferred
// grant pending — runs on, loads, and requires the rest of the run to
// repeat itself: same deliveries at the same times, same counters, same
// generation. It runs with no chooser, granting inline as the DES does,
// and with one, deferring grants; the chooser is not state and must
// survive.
func TestSaveLoadRewinds(t *testing.T) {
	for _, arb := range []Arbitration{FIFO, RoundRobin, Priority} {
		for _, ch := range []sim.Chooser{nil, grantFirst{}} {
			deferGrants := ch != nil
			k := sim.NewKernel()
			b, r := New(k, "b", arb), &recorder{}
			for i := 0; i < 3; i++ {
				b.Attach(r)
			}
			b.SetChooser(ch)
			for _, at := range []sim.Time{0, 150, 1000} {
				at := at
				k.At(at, func() {
					for src := 0; src < 3; src++ {
						b.Request(src, testPkt{id: int(at) + src, occ: 100})
					}
				})
			}
			var ks sim.KernelState
			var st Saved
			var queued, inflight, grants int
			capSeen := 0
			for stop := 0; ; stop++ {
				if !k.Step() {
					break
				}
				checkQueue(t, b, &capSeen, "after a step")
				k.Save(&ks)
				b.Save(&st)
				b.ForEachQueued(func(int, Packet) { queued++ })
				if b.Inflight() != nil {
					inflight++
				}
				if b.grantPending {
					grants++
				}
				gen, stats, seen := b.Gen(), b.Stats(), len(r.snoops)

				k.Run()
				checkQueue(t, b, &capSeen, "drained")
				want := append([]snooped{}, r.snoops[seen:]...)
				wantStats, wantGen := b.Stats(), b.Gen()

				k.Load(&ks)
				b.Load(&st)
				checkQueue(t, b, &capSeen, "after Load")
				if b.Gen() != gen || b.Stats() != stats || b.chooser != ch {
					t.Fatalf("%v defer=%v stop %d: after Load gen=%d stats=%+v chooser=%v, saved gen=%d stats=%+v",
						arb, deferGrants, stop, b.Gen(), b.Stats(), b.chooser, gen, stats)
				}
				r.snoops = r.snoops[:seen]
				k.Run()
				if got := r.snoops[seen:]; !reflect.DeepEqual(got, want) || b.Stats() != wantStats || b.Gen() != wantGen {
					t.Fatalf("%v defer=%v stop %d: after Load the bus delivered %v (stats %+v gen %d), the first time %v (stats %+v gen %d)",
						arb, deferGrants, stop, got, b.Stats(), b.Gen(), want, wantStats, wantGen)
				}
				// Back to the stop, to take the next step from it.
				k.Load(&ks)
				b.Load(&st)
				r.snoops = r.snoops[:seen]
			}
			if len(r.snoops) != 27 {
				t.Fatalf("%v defer=%v: %d snoops in all, want 27", arb, deferGrants, len(r.snoops))
			}
			if queued == 0 || inflight == 0 || (deferGrants && grants == 0) {
				t.Fatalf("%v defer=%v: the stops caught %d queued operations, %d in flight, %d pending grants",
					arb, deferGrants, queued, inflight, grants)
			}
		}
	}
}

// noop is an agent that ignores everything delivered to it.
type noop struct{}

func (noop) Probe(b *Bus, pkt Packet) {}
func (noop) Snoop(b *Bus, pkt Packet) {}

// TestNilRequesterArbitratesLikeAnAgent: a requester attached as nil is
// granted exactly as a no-op agent in its place would be, under every
// policy and under a chooser, is never delivered to (a delivery would
// call a method on the nil agent), and is counted by Agents.
func TestNilRequesterArbitratesLikeAnAgent(t *testing.T) {
	run := func(arb Arbitration, ch sim.Chooser, requester Agent) ([]snooped, Stats, int) {
		k := sim.NewKernel()
		b := New(k, "b", arb)
		r := &recorder{}
		for _, a := range []Agent{requester, noop{}, requester, r, requester} {
			b.Attach(a)
		}
		if ch != nil {
			b.SetChooser(ch)
		}
		for _, at := range []sim.Time{0, 30, 35, 200} {
			at := at
			k.At(at, func() {
				for src := b.Agents() - 1; src >= 0; src-- {
					for i := 0; i <= src%2; i++ {
						b.Request(src, testPkt{id: 100*int(at) + 10*src + i, occ: 20})
					}
				}
			})
		}
		k.Run()
		if r.probes != len(r.snoops) {
			t.Fatalf("%v: %d probes for %d snoops", arb, r.probes, len(r.snoops))
		}
		return r.snoops, b.Stats(), b.Agents()
	}
	for _, arb := range []Arbitration{FIFO, RoundRobin, Priority} {
		for _, ch := range []sim.Chooser{nil, &grantLast{}} {
			want, wantStats, _ := run(arb, ch, noop{})
			got, stats, agents := run(arb, ch, nil)
			if !reflect.DeepEqual(got, want) || stats != wantStats {
				t.Errorf("%v chooser=%v: nil requesters granted %v (%+v), no-op agents %v (%+v)",
					arb, ch != nil, got, stats, want, wantStats)
			}
			if agents != 5 || len(got) != 28 {
				t.Errorf("%v chooser=%v: Agents() = %d, %d deliveries; want 5 and 28", arb, ch != nil, agents, len(got))
			}
		}
	}
}
