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
	driver
	m *singlebus.Machine
}

func newSBInstance(sc *Scenario, sh *shared) *sbInstance {
	sc.FillDefaults()
	in := &sbInstance{}
	in.driver = newDriver(sc, sh, in.issue, func(p int) string { return fmt.Sprintf("proc%d", p) })
	in.reset()
	return in
}

// reset puts the instance at the start of a from-scratch execution. The
// baseline machine has no Reset of its own, so each execution gets a new
// one; the driver's buffers are kept.
func (in *sbInstance) reset() {
	in.m = singlebus.MustNew(singlebus.Config{
		Processors: len(in.sc.Procs),
		BlockWords: in.sc.BlockWords,
		CacheLines: in.sc.CacheLines,
		CacheAssoc: in.sc.CacheAssoc,
		Protocol:   in.sc.Protocol,
	})
	in.k = in.m.Kernel()
	in.scChecks, in.scUndecided = 0, 0
	in.start()
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

// --- the checker seam -----------------------------------------------------

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

// quiescenceCheck: program completion, the write-once global-state
// oracle, and the SC witness.
func (in *sbInstance) quiescenceCheck() *Violation {
	return in.quiescence(func() []error { return singlebus.CheckInvariants(in.m) })
}

// canonicalFP fingerprints machine and driver state, minimized over all
// processor relabelings (every cache controller on the one bus is
// interchangeable). It is a full walk per relabeling and the baseline's
// only fingerprint: its whole traffic is a few thousand states (DESIGN.md
// §5.8), so there is no cache to keep coherent with the machine.
func (in *sbInstance) canonicalFP() uint64 {
	best := ^uint64(0)
	for i, perm := range in.sh.perms {
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
		// Driver state in canonical order: slot cp holds processor inv[cp].
		for _, p := range in.sh.invs[i] {
			m.Word(uint64(in.pc[p]))
			m.Word(in.sh.progH[p])
		}
		if fp := m.Sum(); fp < best {
			best = fp
		}
	}
	return best
}

// fpStats: nothing is cached on the baseline, so nothing is counted.
func (in *sbInstance) fpStats() Cost { return Cost{} }
