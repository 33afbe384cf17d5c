package bus

import (
	"math/rand"
	"slices"
	"testing"

	"multicube/internal/sim"
)

// fuzzPkt is a request of FuzzBusOrder, numbered in request order.
type fuzzPkt struct {
	id  int
	occ sim.Time
}

func (p fuzzPkt) Occupancy() sim.Time { return p.occ }

// idLog is an agent that records the number of every packet delivered.
type idLog struct{ ids []int }

func (l *idLog) Probe(*Bus, Packet)       {}
func (l *idLog) Snoop(_ *Bus, pkt Packet) { l.ids = append(l.ids, pkt.(fuzzPkt).id) }

// pickLog picks candidate pick modulo their number and records the
// packet numbers it was offered.
type pickLog struct {
	pick    int
	offered [][]int
}

func (c *pickLog) Choose(_ sim.ChoicePoint, cands []sim.Candidate) int {
	ids := make([]int, len(cands))
	for i, cand := range cands {
		ids[i] = cand.Tag.(fuzzPkt).id
	}
	c.offered = append(c.offered, ids)
	return c.pick % len(cands)
}

// refReq is a queued request of the reference model.
type refReq struct {
	id  int
	occ sim.Time
	at  sim.Time // when it was requested
}

// refBus is the reference model: one FIFO per source, and the bus's
// timing written out. Its kernel events are deferred grants, which fire
// at once, and the delivery of the operation in flight. A grant event
// outlives grantPending when the chooser is removed and a request is
// granted inline before it fires; it then finds the bus busy.
type refBus struct {
	arb          Arbitration
	now          sim.Time
	queues       [][]refReq
	last         int
	busy         bool
	inflight     refReq
	deliverAt    sim.Time
	grantPending bool
	grantEvents  int
	stats        Stats
}

func (r *refBus) clone() *refBus {
	c := *r
	c.queues = make([][]refReq, len(r.queues))
	for i, q := range r.queues {
		c.queues[i] = slices.Clone(q)
	}
	return &c
}

func (r *refBus) queued() int {
	n := 0
	for _, q := range r.queues {
		n += len(q)
	}
	return n
}

// waiting lists the sources with a queued request in policy order: by
// the number of their first request under FIFO, else cyclically from the
// one after the last grantee.
func (r *refBus) waiting() []int {
	var srcs []int
	n := len(r.queues)
	for i := 1; i <= n; i++ {
		if src := (r.last + i) % n; len(r.queues[src]) > 0 {
			srcs = append(srcs, src)
		}
	}
	if r.arb == FIFO {
		slices.SortFunc(srcs, func(a, b int) int { return r.queues[a][0].id - r.queues[b][0].id })
	}
	return srcs
}

// grant gives the idle bus to the policy's pick, or with a chooser to
// the pick'th waiting source's first request, recording the choice
// offered.
func (r *refBus) grant(chosen bool, pick int, offered *[][]int) {
	r.grantPending = false
	if r.busy || r.queued() == 0 {
		return
	}
	srcs := r.waiting()
	src := srcs[0]
	if chosen && len(srcs) > 1 {
		ids := make([]int, len(srcs))
		for i, s := range srcs {
			ids[i] = r.queues[s][0].id
		}
		*offered = append(*offered, ids)
		src = srcs[pick%len(srcs)]
	}
	req := r.queues[src][0]
	r.queues[src] = r.queues[src][1:]
	if r.arb == RoundRobin {
		r.last = src
	}
	r.busy, r.inflight, r.deliverAt = true, req, r.now+req.occ
	r.stats.WaitTime += r.now - req.at
	r.stats.BusyTime += req.occ
}

// arbitrate grants inline, or with a chooser schedules a grant event
// unless one is due or nothing waits.
func (r *refBus) arbitrate(chosen bool, pick int, offered *[][]int) {
	switch {
	case !chosen:
		r.grant(chosen, pick, offered)
	case !r.grantPending && r.queued() > 0:
		r.grantPending = true
		r.grantEvents++
	}
}

func (r *refBus) request(req refReq, chosen bool, pick int, offered *[][]int) {
	r.queues[req.src()] = append(r.queues[req.src()], req)
	r.stats.MaxQueued = max(r.stats.MaxQueued, r.queued())
	if !r.busy {
		r.arbitrate(chosen, pick, offered)
	}
}

// step fires the earliest pending event, if any: a grant event, else the
// delivery, after which the bus arbitrates again.
func (r *refBus) step(chosen bool, pick int, delivered *[]int, offered *[][]int) bool {
	switch {
	case r.grantEvents > 0:
		r.grantEvents--
		r.grant(chosen, pick, offered)
	case r.busy:
		r.now = r.deliverAt
		r.stats.Ops++
		*delivered = append(*delivered, r.inflight.id)
		r.busy = false
		r.arbitrate(chosen, pick, offered)
	default:
		return false
	}
	return true
}

// src is the source a request's number encodes (see FuzzBusOrder).
func (q refReq) src() int { return q.id % 8 }

// FuzzBusOrder runs random programs of requests from 2–5 sources (one of
// them a nil requester), kernel steps, Save, Load and a chooser switched
// on and off that picks any candidate, under every arbitration policy,
// and holds the delivery order, the choices offered, the queue and the
// counters to a model that keeps one FIFO per source.
func FuzzBusOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		prog := make([]byte, 64+rng.Intn(400))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		nsrc, arb := 2+int(prog[0])%4, Arbitration(prog[1]%3)
		prog = prog[2:]
		k := sim.NewKernel()
		b, log := New(k, "b", arb), &idLog{}
		for src := 0; src < nsrc; src++ {
			switch src {
			case nsrc - 1:
				b.Attach(nil)
			case 0:
				b.Attach(log)
			default:
				b.Attach(noop{})
			}
		}
		ref := &refBus{arb: arb, queues: make([][]refReq, nsrc), last: -1}
		ch := &pickLog{}
		chosen := false
		var want []int
		var offered [][]int
		var ks sim.KernelState
		var st Saved
		var saved *refBus
		next := 0
		for ; len(prog) >= 2; prog = prog[2:] {
			arg := int(prog[1])
			ch.pick = arg
			switch prog[0] % 8 {
			case 0, 1, 2:
				// Number the request so that its source is id % 8.
				src := arg % nsrc
				next += 8
				req := refReq{id: next + src, occ: sim.Time(1+arg/nsrc%4) * 10, at: ref.now}
				ref.request(req, chosen, arg, &offered)
				b.Request(src, fuzzPkt{id: req.id, occ: req.occ})
			case 3, 4, 5:
				more := ref.step(chosen, arg, &want, &offered)
				if k.Step() != more {
					t.Fatalf("Step reported %v, the model %v", !more, more)
				}
			case 6:
				if arg%2 == 0 {
					k.Save(&ks)
					b.Save(&st)
					saved = ref.clone()
				} else if saved != nil {
					k.Load(&ks)
					b.Load(&st)
					ref = saved.clone()
				}
			case 7:
				if chosen = arg%2 != 0; chosen {
					b.SetChooser(ch)
				} else {
					b.SetChooser(nil)
				}
			}
			if !slices.Equal(log.ids, want) {
				t.Fatalf("the bus delivered\n%v\nthe model\n%v", log.ids, want)
			}
			if !slices.EqualFunc(ch.offered, offered, slices.Equal) {
				t.Fatalf("the chooser was offered\n%v\nthe model offers\n%v", ch.offered, offered)
			}
			if got := b.Stats(); got != ref.stats {
				t.Fatalf("bus stats %+v, the model's %+v", got, ref.stats)
			}
			if k.Now() != ref.now || b.Busy() != ref.busy || b.grantPending != ref.grantPending {
				t.Fatalf("bus now=%v busy=%v grantPending=%v, model now=%v busy=%v grantPending=%v",
					k.Now(), b.Busy(), b.grantPending, ref.now, ref.busy, ref.grantPending)
			}
			if ref.busy && b.Inflight().(fuzzPkt).id != ref.inflight.id {
				t.Fatalf("in flight %v, the model's %d", b.Inflight(), ref.inflight.id)
			}
			queues := make([][]refReq, nsrc)
			b.ForEachQueued(func(src int, pkt Packet) {
				p := pkt.(fuzzPkt)
				if p.id%8 != src {
					t.Fatalf("packet %d queued under source %d", p.id, src)
				}
				queues[src] = append(queues[src], refReq{id: p.id, occ: p.occ})
			})
			for src, q := range ref.queues {
				if !slices.EqualFunc(queues[src], q, func(a, b refReq) bool { return a.id == b.id }) {
					t.Fatalf("source %d has %v queued, the model %v", src, queues[src], q)
				}
			}
		}
	})
}
