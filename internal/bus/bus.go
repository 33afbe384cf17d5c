// Package bus models the shared buses of the Multicube: broadcast media
// with arbitration, occupancy timing, and snooping delivery to the
// attached agents.
//
// A bus operation ("packet") is granted the bus, holds it for its
// occupancy time (an address-and-command operation is short; a data
// transfer holds the bus for the full block), and is then delivered to
// every attached agent, in attach order. A requester — attached as nil —
// arbitrates under its attach index like any agent but is never delivered
// to: a machine that snoops on its devices' behalf attaches the devices
// as requesters and one agent that delivers to them. Delivery happens in
// two phases mirroring the hardware:
//
//  1. Probe: every agent observes the packet and may assert shared wires
//     on it. This models the special row-bus "modified line" — a wired-OR
//     signal supplied a fixed number of bus cycles after a request is
//     placed on the bus, by the (at most one) node whose modified line
//     table holds the requested line.
//  2. Snoop: every agent takes its protocol actions, knowing the final
//     state of the shared wires.
//
// Both phases run at the end of the occupancy interval, in deterministic
// attach order. Actions that model device latency (a snooping-cache or
// memory access before a reply) are scheduled by the agents themselves.
// The package participates in the explorer's determinism contract: no
// wall clock, no map-order dependence, no scheduling outside the chooser
// seam. multicube-vet enforces this (see internal/analysis).
//
//multicube:deterministic
package bus

import (
	"fmt"

	"multicube/internal/sim"
)

// Packet is one bus operation. Implementations carry the protocol payload;
// the bus needs only the occupancy time.
type Packet interface {
	// Occupancy is how long the operation holds the bus.
	Occupancy() sim.Time
}

// Agent is a device attached to a bus: a snooping cache controller or a
// main memory module.
type Agent interface {
	// Probe lets the agent assert shared signal lines on the packet.
	// It must not issue bus requests or mutate protocol state.
	Probe(b *Bus, pkt Packet)
	// Snoop delivers the packet for protocol action.
	Snoop(b *Bus, pkt Packet)
}

// Arbitration selects among simultaneously waiting requesters.
type Arbitration int

const (
	// FIFO grants strictly in request order.
	FIFO Arbitration = iota
	// RoundRobin grants the next waiting agent after the last grantee,
	// cycling by attach index; requests from one agent stay ordered.
	RoundRobin
	// Priority grants the waiting agent with the lowest attach index —
	// fixed priority by attach order, the head-of-line discipline of the
	// Nikolov & Lerato bus-arbitration study (arXiv:1004.3560). On a row
	// bus that favors low-numbered columns; on a column bus, low rows
	// ahead of the memory module.
	Priority
)

// ParseArbitration maps a flag spelling to a policy.
func ParseArbitration(s string) (Arbitration, error) {
	switch s {
	case "fcfs", "fifo":
		return FIFO, nil
	case "rr", "roundrobin":
		return RoundRobin, nil
	case "priority":
		return Priority, nil
	}
	return 0, fmt.Errorf("unknown arbitration %q (want fcfs, rr, or priority)", s)
}

// String renders the policy in its canonical flag spelling.
func (a Arbitration) String() string {
	switch a {
	case FIFO:
		return "fcfs"
	case RoundRobin:
		return "rr"
	case Priority:
		return "priority"
	}
	return fmt.Sprintf("Arbitration(%d)", int(a))
}

// Stats aggregates bus activity for utilization and latency reporting.
type Stats struct {
	Ops       uint64   // operations completed
	BusyTime  sim.Time // total time the bus was held
	WaitTime  sim.Time // total time operations waited for a grant
	MaxQueued int      // high-water mark of waiting operations
}

type pending struct {
	src      int
	pkt      Packet
	enqueued sim.Time
}

// GrantTag tags the deferred-grant kernel event of a bus (only with a
// chooser installed): when it fires, the bus picks one queued request to
// grant.
type GrantTag struct{ B *Bus }

func (t GrantTag) String() string { return t.B.name + " grant" }

// DeliverTag tags the delivery event of a granted bus operation: when it
// fires, the operation's occupancy ends and every agent snoops it. The
// tag is one pointer, so the kernel holds it without allocating; the
// operation it delivers is the one in flight on B, which makes Pkt
// meaningful only while the tagged event is pending.
type DeliverTag struct{ B *Bus }

// Pkt returns the operation the tagged event will deliver.
func (t DeliverTag) Pkt() Packet { return t.B.inflight }

func (t DeliverTag) String() string { return fmt.Sprintf("%s deliver %v", t.B.name, t.B.inflight) }

// Bus is one row or column bus.
type Bus struct {
	k    *sim.Kernel
	name string
	arb  Arbitration
	// agents are the agents delivered to, in attach order; attached counts
	// every attach index handed out, requesters' included.
	agents   []Agent
	attached int

	// queue holds every waiting request in arrival order, under every
	// policy, so each source's requests stay in the order it made them.
	//
	//multicube:fpfield
	queue []pending
	//multicube:fpfield
	busy bool
	last int // last granted attach index (RoundRobin)

	// chooser, when set, arbitrates among the first queued request of
	// every waiting source in place of the configured policy, and
	// decouples enqueue from grant: a Request on an idle bus schedules a
	// zero-delay tagged grant event instead of granting inline, so
	// requests enqueued "simultaneously" all reach arbitration before any
	// is granted.
	chooser      sim.Chooser
	grantPending bool
	// inflight is the granted operation whose occupancy is running: what
	// the pending delivery event will deliver.
	//
	//multicube:fpfield
	inflight Packet
	// deliverFn and grantFn are the bodies of the delivery and deferred-
	// grant events, built once: scheduling either allocates nothing, and
	// what they do is decided by the state Save and Load rewind.
	deliverFn, grantFn func()

	// gen counts mutations of fingerprint-visible bus state (queue,
	// busy/inflight). Incremental fingerprint caches compare it against a
	// remembered value to skip rehashing an unchanged bus.
	//
	//multicube:gencounter
	gen uint64

	// scratch buffers reused by heads and next, which run once per grant
	// under a model checker and must not allocate.
	headScratch []int
	candScratch []sim.Candidate
	seenScratch []bool

	stats Stats
}

// New returns an idle bus using the given arbitration policy.
func New(k *sim.Kernel, name string, arb Arbitration) *Bus {
	b := &Bus{k: k, name: name, arb: arb, last: -1}
	b.deliverFn, b.grantFn = b.deliver, b.grant
	return b
}

// Saved is a caller-owned buffer holding a bus at a kernel-step boundary:
// its queue, the operation in flight, the arbitration pointer, the
// generation and the counters. Save fills it and keeps its capacity.
type Saved struct {
	queue        []pending
	busy         bool
	last         int
	grantPending bool
	inflight     Packet
	gen          uint64
	stats        Stats
}

// Save copies the bus's mutable state into st. The grant and delivery
// events the bus has pending belong to its kernel and are saved with it
// (sim.Kernel.Save); their bodies read only the state saved here.
func (b *Bus) Save(st *Saved) {
	st.queue = append(st.queue[:0], b.queue...)
	st.busy, st.last, st.grantPending = b.busy, b.last, b.grantPending
	st.inflight, st.gen, st.stats = b.inflight, b.gen, b.stats
}

// Load rewinds the bus to a state Save took from it, leaving its agents
// and chooser alone. The queue is dequeued in place (see dequeue), so
// clearing it whole before refilling it drops every packet its array
// still names. The generation comes back with the state
// it counts, so a cache keyed on it must be rewound or invalidated too:
// generation g of the abandoned future is not generation g of the next.
//
//multicube:fpexempt restores the fingerprint-visible fields together with the generation that counts them
func (b *Bus) Load(st *Saved) {
	clear(b.queue)
	b.queue = append(b.queue[:0], st.queue...)
	b.busy, b.last, b.grantPending = st.busy, st.last, st.grantPending
	b.inflight, b.gen, b.stats = st.inflight, st.gen, st.stats
}

// Name returns the diagnostic name.
func (b *Bus) Name() string { return b.name }

// Stats returns a snapshot of the counters.
func (b *Bus) Stats() Stats { return b.stats }

// Agents returns the number of attach indices, requesters included.
func (b *Bus) Agents() int { return b.attached }

// Attach connects an agent and returns its attach index, which is also its
// arbitration identity. A nil agent is a requester: it requests and is
// granted like any agent, and nothing is delivered to it.
//
//multicube:fpexempt construction-time wiring, before any fingerprint exists
func (b *Bus) Attach(a Agent) int {
	if a != nil {
		b.agents = append(b.agents, a)
	}
	b.attached++
	return b.attached - 1
}

// SetChooser routes arbitration through ch and defers every grant to its
// own event, so that a model checker sees every waiting source as a
// grant candidate (nil restores the configured policy, granted inline).
func (b *Bus) SetChooser(ch sim.Chooser) { b.chooser = ch }

// Gen reports the mutation generation of the fingerprint-visible bus
// state. It changes whenever the queue or the busy/inflight pair may
// have changed.
func (b *Bus) Gen() uint64 { return b.gen }

// Busy reports whether an operation currently holds the bus.
func (b *Bus) Busy() bool { return b.busy }

// Inflight returns the operation holding the bus, or nil.
func (b *Bus) Inflight() Packet { return b.inflight }

// ForEachQueued visits every queued (not yet granted) operation in
// arrival order. Model checkers include the queue in state fingerprints.
func (b *Bus) ForEachQueued(fn func(src int, pkt Packet)) {
	for _, p := range b.queue {
		fn(p.src, p.pkt)
	}
}

// Request enqueues a bus operation from the agent with attach index src.
// The operation is granted according to the arbitration policy, holds the
// bus for pkt.Occupancy(), and is then delivered to every agent.
func (b *Bus) Request(src int, pkt Packet) {
	if src < 0 || src >= b.attached {
		panic(fmt.Sprintf("bus %s: request from unknown agent %d", b.name, src))
	}
	b.gen++
	b.queue = append(b.queue, pending{src: src, pkt: pkt, enqueued: b.k.Now()})
	b.stats.MaxQueued = max(b.stats.MaxQueued, len(b.queue))
	if !b.busy {
		if b.chooser != nil {
			b.scheduleGrant()
		} else {
			b.grant()
		}
	}
}

// scheduleGrant arranges arbitration as its own zero-delay kernel event
// (with a chooser installed), so every request enqueued before the event fires
// participates, and the model checker can reorder the grant against other
// pending activity.
func (b *Bus) scheduleGrant() {
	if b.grantPending || len(b.queue) == 0 {
		return
	}
	b.grantPending = true
	b.k.AfterTagged(0, GrantTag{b}, b.grantFn)
}

// dequeue removes and returns element i of the queue in place: the
// elements behind it move down one slot and the vacated last slot is
// zeroed. The queue never walks off the front of its array (an append
// after q = q[1:] reallocates once the array is used up), and no slot
// names a granted packet.
func dequeue(q *[]pending, i int) pending {
	s := *q
	p := s[i]
	last := i + copy(s[i:], s[i+1:])
	s[last] = pending{}
	*q = s[:last]
	return p
}

// next pops the operation to grant: the queue's head under FIFO, else
// the first request of the first waiting source in policy order — or,
// with a chooser installed, the chooser's pick among the first requests
// of the waiting sources (a source's own requests are a hardware FIFO
// and are never reordered). The queue must not be empty.
//
//multicube:fpexempt called only from grant, which bumps
func (b *Bus) next() pending {
	i := 0
	if b.chooser != nil || b.arb != FIFO {
		heads := b.heads()
		pick := 0
		if b.chooser != nil && len(heads) > 1 {
			cands := b.candScratch[:0]
			for _, h := range heads {
				cands = append(cands, sim.Candidate{Tag: b.queue[h].pkt})
			}
			b.candScratch = cands
			pick = b.chooser.Choose(sim.ChoicePoint{Kind: "grant", Name: b.name}, cands)
			if pick < 0 || pick >= len(heads) {
				panic(fmt.Sprintf("bus %s: chooser picked %d of %d candidates", b.name, pick, len(heads)))
			}
		}
		i = heads[pick]
	}
	p := dequeue(&b.queue, i)
	if b.arb == RoundRobin {
		b.last = p.src
	}
	return p
}

// heads returns the queue index of each waiting source's first request,
// in policy order: arrival order under FIFO, else ascending attach index
// from the one after the last grantee (Priority's last stays -1, so it
// always starts from 0). Index 0 is the policy's own pick.
func (b *Bus) heads() []int {
	if len(b.seenScratch) < b.attached {
		b.seenScratch = make([]bool, b.attached)
	}
	seen := b.seenScratch
	clear(seen)
	heads := b.headScratch[:0]
	for i := range b.queue {
		if src := b.queue[i].src; !seen[src] {
			seen[src] = true
			heads = append(heads, i)
		}
	}
	if b.arb != FIFO {
		n := b.attached
		rank := func(h int) int { return (b.queue[h].src - b.last - 1 + n) % n }
		for i := 1; i < len(heads); i++ {
			for j := i; j > 0 && rank(heads[j]) < rank(heads[j-1]); j-- {
				heads[j], heads[j-1] = heads[j-1], heads[j]
			}
		}
	}
	b.headScratch = heads
	return heads
}

// grant gives an idle bus to the next queued operation. It is called
// inline, and is the body of the event scheduleGrant schedules.
func (b *Bus) grant() {
	b.grantPending = false
	if b.busy || len(b.queue) == 0 {
		return
	}
	p := b.next()
	b.gen++
	b.busy = true
	b.inflight = p.pkt
	b.stats.WaitTime += b.k.Now() - p.enqueued
	occ := p.pkt.Occupancy()
	b.stats.BusyTime += occ
	b.k.AfterFixed(occ, DeliverTag{b}, b.deliverFn)
}

// deliver is the body of the delivery event grant schedules: the
// occupancy of the operation in flight has ended.
func (b *Bus) deliver() {
	pkt := b.inflight
	b.stats.Ops++
	// Phase 1: shared signal lines settle.
	for _, a := range b.agents {
		a.Probe(b, pkt)
	}
	// Phase 2: protocol actions. Agents may issue new Requests here;
	// the bus is still formally held, so they queue behind us.
	for _, a := range b.agents {
		a.Snoop(b, pkt)
	}
	b.gen++
	b.busy = false
	b.inflight = nil
	if b.chooser != nil {
		b.scheduleGrant()
	} else {
		b.grant()
	}
}

// Utilization returns BusyTime as a fraction of elapsed, guarding against
// a zero-length run.
func (b *Bus) Utilization(elapsed sim.Time) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(b.stats.BusyTime) / float64(elapsed)
}
