package singlebus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/fphash"
	"multicube/internal/memory"
	"multicube/internal/sim"
)

// Machine.Fingerprint is the model checker's only fingerprint of the
// baseline, so it is tested here against an oracle that shares no code
// with it: a textual rendering of the protocol-visible state, read through
// Lookup/Peek rather than the ForEach walks the fingerprint uses.

const (
	fpLines      = 4 // lines the programs touch
	fpBlockWords = 2
)

type fpOp struct {
	write bool
	addr  Addr
}

// fpStep tags the kernel event with which a processor slot issues its
// program's next operation (the model checker's stepTag).
type fpStep struct{ slot, step int }

// fpRig is one machine running progs[i] on processor slot[i]; the caller
// installs the chooser that resolves its scheduling and arbitration.
type fpRig struct {
	m      *Machine
	progs  [][]fpOp
	progOf []int // slot -> program index
	pc     []int // per slot
}

func newFPRig(cfg Config, progs [][]fpOp, slot []int) *fpRig {
	r := &fpRig{m: MustNew(cfg), progs: progs, progOf: make([]int, len(slot)), pc: make([]int, len(slot))}
	for prog, s := range slot {
		r.progOf[s] = prog
	}
	for s := range slot {
		s := s
		r.m.k.AtTagged(0, fpStep{s, 0}, func() { r.issue(s) })
	}
	return r
}

func (r *fpRig) issue(s int) {
	prog, step := r.progOf[s], r.pc[s]
	done := func(uint64) {
		r.pc[s]++
		if r.pc[s] < len(r.progs[prog]) {
			r.m.k.AfterTagged(0, fpStep{s, r.pc[s]}, func() { r.issue(s) })
		}
	}
	if op := r.progs[prog][step]; op.write {
		// Values name the program, not the slot, so twins store the same.
		r.m.procs[s].StoreAsync(op.addr, uint64(1000+100*prog+step), done)
	} else {
		r.m.procs[s].LoadAsync(op.addr, done)
	}
}

// canonicalFP is the checker's use of Fingerprint: the minimum over every
// processor relabeling.
func (r *fpRig) canonicalFP(perms [][]int) uint64 {
	best := ^uint64(0)
	for _, perm := range perms {
		extra := func(tag any) (uint64, bool) {
			st, ok := tag.(fpStep)
			if !ok {
				return 0, false
			}
			h := fphash.New()
			h.Word(uint64(perm[st.slot]))
			h.Word(uint64(st.step))
			return h.Sum(), true
		}
		if fp := r.m.Fingerprint(perm, extra); fp < best {
			best = fp
		}
	}
	return best
}

func opText(o *op, rel []int) string {
	return fmt.Sprintf("%v o%d l%d w%d v%d d%v i%v c%v x%v s%v",
		o.kind, rel[o.origin], o.line, o.offset, o.value, o.data, o.inhibit, o.confirmed, o.canceled, o.shared)
}

// tagText renders a choice candidate or pending event under rel.
func tagText(tag any, rel []int) string {
	switch t := tag.(type) {
	case bus.GrantTag:
		return "grant"
	case bus.DeliverTag:
		return "deliver " + opText(t.Pkt().(*op), rel)
	case fpStep:
		return fmt.Sprintf("step p%d #%d", rel[t.slot], t.step)
	case *op:
		return "request " + opText(t, rel)
	}
	return fmt.Sprintf("unknown %T", tag)
}

// stateText renders the protocol-visible state with slot s named rel[s].
func (r *fpRig) stateText(rel []int) string {
	n := len(rel)
	inv := make([]int, n)
	for s, c := range rel {
		inv[c] = s
	}
	var b strings.Builder
	queued := make([][]string, n+1)
	r.m.bus.ForEachQueued(func(src int, pkt bus.Packet) {
		c := n // the memory module
		if src < n {
			c = rel[src]
		}
		queued[c] = append(queued[c], opText(pkt.(*op), rel))
	})
	for c, s := range inv {
		p := r.m.procs[s]
		fmt.Fprintf(&b, "proc %d:", c)
		for l := cache.Line(0); l < fpLines; l++ {
			if e, ok := p.cache.Lookup(l); ok {
				fmt.Fprintf(&b, " [l%d s%d %v]", l, e.State, e.Data)
			}
		}
		if q := p.pend; q != nil {
			fmt.Fprintf(&b, " pend l%d w%v o%d v%d", q.line, q.write, q.offset, q.value)
		}
		for _, wb := range p.wbuf {
			fmt.Fprintf(&b, " wbuf l%d", wb.line)
		}
		fmt.Fprintf(&b, " queue %v\n", queued[c])
	}
	fmt.Fprintf(&b, "mem queue %v:", queued[n])
	for l := memory.Line(0); l < fpLines; l++ {
		fmt.Fprintf(&b, " %v", r.m.mem.store.Peek(l))
	}
	fmt.Fprintf(&b, "\nbus busy %v", r.m.bus.Busy())
	if p := r.m.bus.Inflight(); p != nil {
		fmt.Fprintf(&b, " inflight %s", opText(p.(*op), rel))
	}
	var evs []string
	r.m.k.ForEachPendingTag(func(tag any) { evs = append(evs, tagText(tag, rel)) })
	sort.Strings(evs)
	fmt.Fprintf(&b, "\nevents %q\n", evs)
	return b.String()
}

func (r *fpRig) canonicalText(perms [][]int) string {
	best := ""
	for i, perm := range perms {
		if s := r.stateText(perm); i == 0 || s < best {
			best = s
		}
	}
	return best
}

// poke returns a perturbation: calling it sets *p to v and returns the undo.
func poke[T any](p *T, v T) func() func() {
	return func() func() {
		old := *p
		*p = v
		return func() { *p = old }
	}
}

// perturbations lists single-field changes of the state the machine is
// in, one or more per kind of protocol-visible field.
func (r *fpRig) perturbations() []func() func() {
	var ps []func() func()
	var ops []*op
	if p := r.m.bus.Inflight(); p != nil {
		ops = append(ops, p.(*op))
	}
	r.m.bus.ForEachQueued(func(_ int, pkt bus.Packet) { ops = append(ops, pkt.(*op)) })
	for _, o := range ops {
		ps = append(ps, poke(&o.kind, (o.kind+1)%4), poke(&o.origin, (o.origin+1)%len(r.pc)),
			poke(&o.line, o.line^1), poke(&o.offset, o.offset^1), poke(&o.value, o.value+1),
			poke(&o.inhibit, !o.inhibit), poke(&o.confirmed, !o.confirmed),
			poke(&o.canceled, !o.canceled), poke(&o.shared, !o.shared))
		if o.data != nil {
			ps = append(ps, poke(&o.data[1], o.data[1]+1))
		}
	}
	for _, p := range r.m.procs {
		for l := cache.Line(0); l < fpLines; l++ {
			if e, ok := p.cache.Lookup(l); ok {
				ps = append(ps, poke(&e.State, e.State%3+1), poke(&e.Data[1], e.Data[1]+1))
			}
		}
		if q := p.pend; q != nil {
			ps = append(ps, poke(&q.line, q.line^1), poke(&q.write, !q.write),
				poke(&q.offset, q.offset^1), poke(&q.value, q.value+1))
		}
	}
	for l := memory.Line(0); l < fpLines; l++ {
		l, st := l, r.m.mem.store
		ps = append(ps, func() func() {
			old := st.Peek(l)
			st.Write(l, []uint64{old[0] + 1, old[1]})
			return func() { st.Write(l, old) }
		})
	}
	return ps
}

// leadChooser picks at random and records what it picked, named by
// program; mirrorChooser makes the twin pick the same.
type leadChooser struct {
	rng    *rand.Rand
	rel    []int
	script []string
}

func (c *leadChooser) Choose(_ sim.ChoicePoint, cands []sim.Candidate) int {
	i := c.rng.Intn(len(cands))
	c.script = append(c.script, tagText(cands[i].Tag, c.rel))
	return i
}

type mirrorChooser struct {
	t    *testing.T
	lead *leadChooser
	rel  []int
}

func (c *mirrorChooser) Choose(_ sim.ChoicePoint, cands []sim.Candidate) int {
	if len(c.lead.script) == 0 {
		c.t.Fatalf("twin faces a choice among %d candidates where the machine had none", len(cands))
	}
	want := c.lead.script[0]
	c.lead.script = c.lead.script[1:]
	for i, cand := range cands {
		if tagText(cand.Tag, c.rel) == want {
			return i
		}
	}
	c.t.Fatalf("twin has no candidate mirroring %q", want)
	return 0
}

func allPerms(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range allPerms(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestFingerprintRelabeling: over seeded two- to four-processor read/write
// programs, both snoopers, bounded and unbounded caches, a machine and
// its twin — the same programs on permuted processor slots, under the
// mirrored schedule — have equal min-over-relabelings fingerprints after
// every kernel step; over all the states several schedules of one
// scenario reach, two fingerprints are equal exactly when the oracle's
// canonical renderings are; and changing any one protocol-visible field
// of a reached state changes its fingerprint, unless the oracle says the
// result is the same state relabeled. No two different protocol states
// share a fingerprint.
func TestFingerprintRelabeling(t *testing.T) {
	seeds, schedules := 48, 3
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 2 + seed%3
		cfg := Config{Processors: n, BlockWords: fpBlockWords}
		if seed/3%2 == 1 {
			cfg.Protocol = ProtocolMESI
		}
		if seed/6%2 == 1 {
			cfg.CacheLines, cfg.CacheAssoc = 2, 1
		}
		progs := make([][]fpOp, n)
		for p := range progs {
			progs[p] = make([]fpOp, 1+rng.Intn(3))
			for i := range progs[p] {
				progs[p][i] = fpOp{write: rng.Intn(2) == 0, addr: Addr(rng.Intn(fpLines * fpBlockWords))}
			}
		}
		perms := allPerms(n)
		ident := make([]int, n)
		for i := range ident {
			ident[i] = i
		}
		textOf := make(map[uint64]string) // canonical fingerprint -> canonical rendering
		fpOf := make(map[string]uint64)
		for sched := 0; sched < schedules; sched++ {
			lead := &leadChooser{rng: rng, rel: ident}
			a := newFPRig(cfg, progs, ident)
			a.m.EnableModelChecking(lead)
			slot := rng.Perm(n)
			b := newFPRig(cfg, progs, slot)
			b.m.EnableModelChecking(&mirrorChooser{t: t, lead: lead, rel: b.progOf})
			for step := 0; ; step++ {
				fa, fb := a.canonicalFP(perms), b.canonicalFP(perms)
				if fa != fb {
					t.Fatalf("seed %d schedule %d step %d: twin on slots %v fingerprints %#x, machine %#x\nmachine:\n%stwin:\n%s",
						seed, sched, step, slot, fb, fa, a.stateText(ident), b.stateText(b.progOf))
				}
				text := a.canonicalText(perms)
				if prev, ok := textOf[fa]; ok && prev != text {
					t.Fatalf("seed %d: two protocol states share fingerprint %#x:\n%s\nand\n%s", seed, fa, prev, text)
				}
				if prev, ok := fpOf[text]; ok && prev != fa {
					t.Fatalf("seed %d: one protocol state fingerprints as %#x and %#x:\n%s", seed, prev, fa, text)
				}
				textOf[fa], fpOf[text] = text, fa
				if sched == 0 {
					for i, perturb := range a.perturbations() {
						undo := perturb()
						if a.canonicalFP(perms) == fa && a.canonicalText(perms) != text {
							t.Fatalf("seed %d step %d: perturbation %d left fingerprint %#x unchanged:\n%s\nbecame\n%s",
								seed, step, i, fa, text, a.canonicalText(perms))
						}
						undo()
					}
				}
				more := a.m.k.Step()
				if b.m.k.Step() != more || len(lead.script) != 0 {
					t.Fatalf("seed %d schedule %d step %d: twin diverged from the mirrored schedule", seed, sched, step)
				}
				if !more {
					break
				}
			}
			for s, pc := range a.pc {
				if pc != len(progs[s]) {
					t.Fatalf("seed %d schedule %d: program %d stopped at op %d of %d", seed, sched, s, pc, len(progs[s]))
				}
			}
			if errs := append(CheckInvariants(a.m), CheckInvariants(b.m)...); len(errs) > 0 {
				t.Fatalf("seed %d schedule %d: %v", seed, sched, errs)
			}
		}
		if len(textOf) < 4 {
			t.Fatalf("seed %d: only %d distinct states reached", seed, len(textOf))
		}
	}
}
