package mc

import (
	"fmt"

	"multicube/internal/bus"
	"multicube/internal/cache"
	"multicube/internal/fphash"
	"multicube/internal/sim"
	"multicube/internal/singlebus"
)

// sbInstance runs from-scratch executions of a SingleBus scenario: the
// write-once baseline machine (internal/singlebus) driven through the
// same checker seam as the Multicube, with per-processor bounded
// programs, per-step and quiescence oracles, and the same per-address
// sequential-consistency witness. Processors are identified by program
// position; line L's word 0 maps to word address L*BlockWords.
type sbInstance struct {
	sc *Scenario
	sh *shared
	k  *sim.Kernel
	m  *singlebus.Machine

	pc        []int
	completed int
	wit       *witness

	// Cross-address SC check counters (Scenario.CheckSC only).
	scChecks    uint64
	scUndecided uint64

	// Incremental fingerprint state, mirroring instance.
	fpc      *singlebus.FPCache
	drvH     []uint64
	drvDirty []bool
	drvRec   uint64
	drvInc   uint64

	failure string
}

func newSBInstance(sc *Scenario, sh *shared) *sbInstance {
	sc.FillDefaults()
	in := &sbInstance{
		sc:       sc,
		sh:       sh,
		pc:       make([]int, len(sc.Procs)),
		wit:      newWitness(sc),
		fpc:      new(singlebus.FPCache), // bound to each execution's machine by reset
		drvH:     make([]uint64, len(sc.Procs)),
		drvDirty: make([]bool, len(sc.Procs)),
	}
	in.reset()
	return in
}

// reset puts the instance at the start of a from-scratch execution. The
// baseline machine has no Reset of its own, so each execution gets a new
// one; the driver's buffers and the fingerprint cache are kept.
func (in *sbInstance) reset() {
	in.m = singlebus.MustNew(singlebus.Config{
		Processors: len(in.sc.Procs),
		BlockWords: in.sc.BlockWords,
		CacheLines: in.sc.CacheLines,
		CacheAssoc: in.sc.CacheAssoc,
		Protocol:   in.sc.Protocol,
	})
	in.k = in.m.Kernel()
	in.fpc.Reset(in.m)
	in.completed = 0
	in.wit.reset()
	in.scChecks, in.scUndecided = 0, 0
	in.drvRec, in.drvInc = 0, 0
	in.failure = ""
	for p := range in.sc.Procs {
		in.pc[p] = 0
		in.drvDirty[p] = true
		p := p
		in.k.AtTagged(0, stepTag{proc: p, step: 0}, func() { in.issue(p) })
	}
}

func (in *sbInstance) addr(line uint64) singlebus.Addr {
	return singlebus.Addr(line * uint64(in.sc.BlockWords))
}

func (in *sbInstance) issue(p int) {
	step := in.pc[p]
	op := in.sc.Procs[p].Ops[step]
	proc := in.m.Processor(p)
	switch op.Kind {
	case OpRead:
		proc.LoadAsync(in.addr(op.Line), func(v uint64) {
			in.wit.read(p, op.Line, v)
			in.complete(p)
		})
	case OpWrite:
		val := writeValue(p, step)
		proc.StoreAsync(in.addr(op.Line), val, func(old uint64) {
			in.wit.write(p, op.Line, old, val)
			in.complete(p)
		})
	default:
		// Validate rejects everything else for SingleBus scenarios.
		panic(fmt.Sprintf("mc: op kind %v on the single-bus baseline", op.Kind))
	}
}

func (in *sbInstance) complete(p int) {
	in.drvDirty[p] = true
	in.pc[p]++
	in.completed++
	if next := in.pc[p]; next < len(in.sc.Procs[p].Ops) {
		in.k.AfterTagged(0, stepTag{proc: p, step: next}, func() { in.issue(p) })
	}
}

// --- the checker seam -----------------------------------------------------

func (in *sbInstance) kernel() *sim.Kernel     { return in.k }
func (in *sbInstance) enableMC(ch sim.Chooser) { in.m.EnableModelChecking(ch) }

// classify: the single shared bus serializes everything, so no pair of
// transitions is provably independent — every class is tkOther and both
// halves of the reduction are inert on the baseline. That is the honest
// answer, not a shortcut: write-once relies on bus atomicity, and every
// pending event can observe or extend the one bus queue.
func (in *sbInstance) classify(tag any) tagClass {
	return tagClass{kind: tkOther, bus: -1}
}

func (in *sbInstance) grantClass(busName string, tag any) tagClass {
	m := fphash.New()
	m.Word(0x11)
	if pkt, ok := tag.(bus.Packet); ok {
		if fp, ok := in.m.PacketFP(pkt); ok {
			m.Word(fp)
		}
	}
	return tagClass{kind: tkOther, bus: -1, fp: m.Sum()}
}

// stepCheck verifies the invariant that must hold in EVERY state: at
// most one Reserved/Dirty copy of a line machine-wide (write-once's
// exclusivity is established atomically by the bus transaction, so there
// is no legitimate transition window for duplicates, unlike the
// Multicube's).
func (in *sbInstance) stepCheck(maxReissues int) *Violation {
	if in.failure != "" {
		return &Violation{Kind: "protocol", Msg: in.failure}
	}
	holders := make(map[cache.Line]int)
	for i := 0; i < in.m.Processors(); i++ {
		var dup *Violation
		in.m.Processor(i).Cache().ForEach(func(e *cache.Entry) {
			if (e.State != singlebus.Dirty && e.State != singlebus.Reserved) || dup != nil {
				return
			}
			if first, ok := holders[e.Line]; ok {
				dup = &Violation{Kind: "invariant",
					Msg: fmt.Sprintf("line %d exclusive in two caches at once: proc%d and proc%d", e.Line, first, i)}
				return
			}
			holders[e.Line] = i
		})
		if dup != nil {
			return dup
		}
	}
	return nil
}

// quiescenceCheck mirrors the Multicube instance's: program completion,
// the write-once global-state oracle, and the SC witness.
func (in *sbInstance) quiescenceCheck() *Violation {
	if in.completed < in.sc.TotalOps() {
		var stuck []string
		for p, pr := range in.sc.Procs {
			if in.pc[p] < len(pr.Ops) {
				stuck = append(stuck, fmt.Sprintf("proc%d at op %d/%d (%v line %d)",
					p, in.pc[p], len(pr.Ops), pr.Ops[in.pc[p]].Kind, pr.Ops[in.pc[p]].Line))
			}
		}
		return &Violation{Kind: "deadlock",
			Msg: fmt.Sprintf("machine quiescent with unfinished programs: %v", stuck)}
	}
	if errs := singlebus.CheckInvariants(in.m); len(errs) > 0 {
		msg := errs[0].Error()
		if len(errs) > 1 {
			msg = fmt.Sprintf("%s (and %d more)", msg, len(errs)-1)
		}
		return &Violation{Kind: "invariant", Msg: msg}
	}
	if v := in.wit.check(); v != nil {
		return v
	}
	if in.sc.CheckSC {
		in.scChecks++
		v, undecided := in.wit.checkSC(in.sh.scNodes)
		if undecided {
			in.scUndecided++
		}
		if v != nil {
			return v
		}
	}
	return nil
}

// canonicalFP fingerprints machine and driver state, minimized over all
// processor relabelings (every cache controller on the one bus is
// interchangeable). Incremental by default, mirroring instance; see
// there for the legacy and cross-check modes.
func (in *sbInstance) canonicalFP() uint64 {
	if in.sh.legacyFP {
		return in.canonicalFPLegacy()
	}
	in.fpc.BeginPoint(in.extraRow)
	in.refreshDriver()
	best := ^uint64(0)
	for i, perm := range in.sh.perms {
		m := fphash.New()
		m.Word(in.fpc.FP(perm, in.sh.invs[i]))
		m.Word(in.driverCombine(in.sh.invs[i], in.drvH))
		if fp := m.Sum(); fp < best {
			best = fp
		}
	}
	if in.sh.checkFP {
		in.crossCheckFP(best)
	}
	return best
}

func (in *sbInstance) extraRow(tag any) (int, uint64, bool) {
	st, ok := tag.(stepTag)
	if !ok {
		return 0, 0, false
	}
	m := fphash.New()
	m.Word(uint64(st.step))
	return st.proc, m.Sum(), true
}

func (in *sbInstance) driverHash(p int) uint64 {
	m := fphash.New()
	m.Word(uint64(in.pc[p]))
	m.Word(in.sh.progH[p])
	return m.Sum()
}

func (in *sbInstance) refreshDriver() {
	for p := range in.drvH {
		if !in.drvDirty[p] {
			in.drvInc++
			continue
		}
		in.drvDirty[p] = false
		in.drvRec++
		in.drvH[p] = in.driverHash(p)
	}
}

// driverCombine folds the per-processor driver hashes in canonical
// order: canonical slot cp holds physical processor inv[cp].
func (in *sbInstance) driverCombine(inv []int, drvH []uint64) uint64 {
	m := fphash.New()
	for _, p := range inv {
		m.Word(drvH[p])
	}
	return m.Sum()
}

// crossCheckFP recomputes the canonical fingerprint from scratch and
// panics if the incremental path diverged (Options.CheckFP).
func (in *sbInstance) crossCheckFP(got uint64) {
	fresh := singlebus.NewFPCache(in.m)
	fresh.BeginPoint(in.extraRow)
	drv := make([]uint64, len(in.sc.Procs))
	for p := range drv {
		drv[p] = in.driverHash(p)
		if drv[p] != in.drvH[p] {
			panic(fmt.Sprintf("mc: stale incremental driver hash for proc %d: cached %#x, recomputed %#x", p, in.drvH[p], drv[p]))
		}
	}
	best := ^uint64(0)
	for i, perm := range in.sh.perms {
		m := fphash.New()
		m.Word(fresh.FP(perm, in.sh.invs[i]))
		m.Word(in.driverCombine(in.sh.invs[i], drv))
		if fp := m.Sum(); fp < best {
			best = fp
		}
	}
	if best != got {
		panic(fmt.Sprintf("mc: incremental fingerprint diverged from recompute: incremental %#x, from-scratch %#x (scenario %s)", got, best, in.sc.Name))
	}
}

// canonicalFPLegacy is the pre-incremental full-walk path, kept behind
// Options.legacyFP for A/B partition-equivalence tests.
func (in *sbInstance) canonicalFPLegacy() uint64 {
	best := ^uint64(0)
	for _, perm := range in.sh.perms {
		perm := perm
		extra := func(tag any) (uint64, bool) {
			st, ok := tag.(stepTag)
			if !ok {
				return 0, false
			}
			m := fphash.New()
			m.Word(uint64(perm[st.proc]))
			m.Word(uint64(st.step))
			return m.Sum(), true
		}
		m := fphash.New()
		m.Word(in.m.Fingerprint(perm, extra))
		m.Word(in.driverFP(perm))
		if fp := m.Sum(); fp < best {
			best = fp
		}
	}
	return best
}

func (in *sbInstance) driverFP(perm []int) uint64 {
	fps := make([]uint64, len(in.sc.Procs))
	for p, pr := range in.sc.Procs {
		m := fphash.New()
		m.Word(uint64(in.pc[p]))
		m.Word(uint64(len(pr.Ops)))
		for _, op := range pr.Ops {
			m.Word(uint64(op.Kind))
			m.Word(op.Line)
		}
		fps[perm[p]] = m.Sum()
	}
	m := fphash.New()
	for _, f := range fps {
		m.Word(f)
	}
	return m.Sum()
}

func (in *sbInstance) fpStats() (recomputes, incremental uint64) {
	r, u := in.fpc.Stats()
	return r + in.drvRec, u + in.drvInc
}

func (in *sbInstance) scStats() (checks, undecided uint64) {
	return in.scChecks, in.scUndecided
}
