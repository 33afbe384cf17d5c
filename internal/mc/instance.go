package mc

import (
	"fmt"
	"sort"

	"multicube/internal/cache"
	"multicube/internal/coherence"
	"multicube/internal/fphash"
	"multicube/internal/linetable"
	"multicube/internal/memmodel"
	"multicube/internal/sim"
	"multicube/internal/topology"
)

// instance runs executions of a grid scenario, one after the other, on
// one kernel and machine that load rewinds between them — to a boundary
// an execution saved, or to root, the start of every execution: the
// per-processor program counters, the witness and the driver hashes
// belong to the execution in progress. The machine's fingerprint cache
// keys on the rewind's labels and is kept across both.
type instance struct {
	driver
	sys  *coherence.System
	root execState

	held [][]uint64 // sorted held lock lines per processor

	// Incremental fingerprint state: the machine-component cache, plus
	// per-processor driver hashes behind dirty flags.
	fpc      *coherence.FPCache
	drvH     []uint64
	drvDirty []bool
	fpn      Cost // the execution's FP counters but the machine cache's (fpStats)

	sigR, sigC []uint64 // canonical's scratch: row and column signatures

	dupSeen linetable.Table[topology.Coord] // dupModifiedScan's scratch
}

// newInstance builds the machine and returns it at the start of its
// first execution, which it saves as root: the machine as NewSystem built
// it, with the scenario's switches and the harness's hooks installed, and
// each processor's first step pending.
func newInstance(sc *Scenario, sh *shared) *instance {
	sc.FillDefaults()
	k := sim.NewKernel()
	sys := coherence.MustNewSystem(k, coherence.Config{
		N:          sc.N,
		BlockWords: sc.BlockWords,
		CacheLines: sc.CacheLines,
		CacheAssoc: sc.CacheAssoc,
		MLTEntries: sc.MLTEntries,
		MLTAssoc:   sc.MLTAssoc,
		Snarf:      sc.Snarf,
	})
	in := &instance{
		sys:      sys,
		held:     make([][]uint64, len(sc.Procs)),
		fpc:      coherence.NewFPCache(sys),
		drvH:     make([]uint64, len(sc.Procs)),
		drvDirty: make([]bool, len(sc.Procs)),
		sigR:     make([]uint64, sc.N),
		sigC:     make([]uint64, sc.N),
	}
	in.driver = newDriver(sc, sh, in.issue, func(p int) string { return sc.Procs[p].At.String() })
	in.k = k
	sys.DisableStaleReplyPoisoning = sc.InjectStaleReply
	in.begin()
	in.start()
	in.save(&in.root)
	return in
}

// reset puts the instance at the start of a from-scratch execution.
func (in *instance) reset() { in.load(&in.root) }

// begin is what every execution starts with: the machine stands where
// it starts, so the harness's hook fires, the driver hashes are
// invalidated, and the per-execution counters, the fingerprint cache's
// among them, start over.
func (in *instance) begin() {
	if in.sh.instrument != nil {
		in.sh.instrument(in.sys)
	}
	in.scChecks, in.scUndecided = 0, 0
	in.fpn = Cost{}
	in.fpc.ResetStats()
	for p := range in.drvDirty {
		in.drvDirty[p] = true
	}
}

// execState is one grid execution frozen at a kernel-step boundary: the
// machine and the driver. save fills it, keeping its capacity.
type execState struct {
	sys       coherence.Saved
	pc        []int
	held      [][]uint64
	completed int
	hist      memmodel.History
	failure   string
}

// save copies the execution in progress into st. The caller is at a
// kernel-step boundary (see coherence.System.Save).
func (in *instance) save(st *execState) {
	in.sys.Save(&st.sys)
	st.pc = append(st.pc[:0], in.pc...)
	if st.held == nil {
		st.held = make([][]uint64, len(in.held))
	}
	for p, h := range in.held {
		st.held[p] = append(st.held[p][:0], h...)
	}
	st.completed, st.failure = in.completed, in.failure
	st.hist.CopyFrom(&in.wit.hist)
}

var _ rewinder = (*instance)(nil)

// load rewinds the instance to an execution state it saved, in place of
// the replay of the choices that led there. The machine's hooks stay
// installed (Load does not touch them).
func (in *instance) load(st *execState) {
	in.sys.Load(&st.sys)
	in.begin()
	copy(in.pc, st.pc)
	for p, h := range st.held {
		in.held[p] = append(in.held[p][:0], h...)
	}
	in.completed, in.failure = st.completed, st.failure
	in.wit.hist.CopyFrom(&st.hist)
}

// writeValue assigns each (processor, step) write a unique nonzero value
// so the witness can identify which write a read observed.
func writeValue(proc, step int) uint64 { return uint64(1000 + 100*proc + step) }

func (in *instance) issue(p int) {
	in.drvDirty[p] = true
	pr := in.sc.Procs[p]
	step := in.pc[p]
	op := pr.Ops[step]
	nd := in.sys.Node(pr.At)
	line := cache.Line(op.Line)
	switch op.Kind {
	case OpRead:
		nd.Read(line, func(coherence.Result) {
			e := nd.CacheEntry(line)
			if e == nil {
				in.fail(fmt.Sprintf("proc %v: read of line %d completed with the line absent", pr.At, op.Line))
				return
			}
			in.wit.read(p, op.Line, e.Data[0])
			in.complete(p)
		})
	case OpWrite:
		val := writeValue(p, step)
		nd.Write(line, func(coherence.Result) {
			e := nd.CacheEntry(line)
			if e == nil {
				in.fail(fmt.Sprintf("proc %v: write of line %d completed with the line absent", pr.At, op.Line))
				return
			}
			old := e.Data[0]
			e.Data[0] = val
			in.wit.write(p, op.Line, old, val)
			in.complete(p)
		})
	case OpAllocate:
		val := writeValue(p, step)
		nd.Allocate(line, func(coherence.Result) {
			e := nd.CacheEntry(line)
			if e == nil {
				in.fail(fmt.Sprintf("proc %v: allocate of line %d completed with the line absent", pr.At, op.Line))
				return
			}
			e.Data[0] = val
			in.complete(p)
		})
	case OpWriteBack:
		nd.WriteBack(line, func(coherence.Result) { in.complete(p) })
	case OpTAS:
		nd.TestAndSet(line, func(r coherence.Result) {
			if r.Acquired {
				in.held[p] = heldAdd(in.held[p], op.Line)
			}
			in.complete(p)
		})
	case OpSync:
		nd.SyncAcquire(line, func(r coherence.Result) {
			if r.Acquired {
				in.held[p] = heldAdd(in.held[p], op.Line)
			}
			in.complete(p)
		})
	case OpUnlock:
		if !heldHas(in.held[p], op.Line) {
			in.complete(p)
			return
		}
		in.held[p] = heldRemove(in.held[p], op.Line)
		if nd.SyncRelease(line) {
			in.complete(p)
			return
		}
		// The line migrated away (the scheme degenerated): release in
		// software with an ordinary write of the lock word.
		nd.Write(line, func(coherence.Result) {
			e := nd.CacheEntry(line)
			if e == nil {
				in.fail(fmt.Sprintf("proc %v: unlock write of line %d completed with the line absent", pr.At, op.Line))
				return
			}
			e.Data[coherence.LockWord] = 0
			in.complete(p)
		})
	default:
		panic(fmt.Sprintf("mc: unknown op kind %v", op.Kind))
	}
}

func (in *instance) complete(p int) {
	in.drvDirty[p] = true
	in.driver.complete(p)
}

// --- the checker seam -----------------------------------------------------

func (in *instance) enableMC(ch sim.Chooser) { in.sys.EnableModelChecking(ch) }

// classify describes a kernel event tag to the partial-order reduction:
// driver step events carry the stepping processor's coordinate; protocol
// events defer to the coherence layer's TagInfo.
func (in *instance) classify(tag any) tagClass {
	if st, ok := tag.(stepTag); ok {
		return tagClass{kind: tkStep, bus: -1, at: in.sc.Procs[st.proc].At}
	}
	if ti, ok := in.sys.TagInfo(tag); ok {
		kind := tkOther
		switch ti.Kind {
		case coherence.TagEnqueue:
			kind = tkEnqueue
		case coherence.TagGrant:
			kind = tkGrant
		case coherence.TagDeliver:
			kind = tkDeliver
		}
		return tagClass{kind: kind, bus: ti.Bus, at: ti.Issuer}
	}
	return tagClass{kind: tkOther, bus: -1}
}

// --- per-step and quiescence oracles ------------------------------------

// stepCheck verifies the invariants that must hold in EVERY state, not
// just at quiescence: the protocol's transition periods legitimately
// admit transient MLT duplicates, in-flight purges (a shared copy
// briefly coexisting with a new modified copy elsewhere), and memory
// valid bits out of sync with in-flight writebacks — but never two
// modified copies, and never a reply nobody was waiting for.
func (in *instance) stepCheck(maxReissues int) *Violation {
	if in.failure != "" {
		return &Violation{Kind: "protocol", Msg: in.failure}
	}
	if s := in.sys.StrayReplies(); s > 0 {
		return &Violation{Kind: "stray-reply", Msg: fmt.Sprintf("%d replies arrived with no matching outstanding request", s)}
	}
	if v := in.dupModifiedScan(); v != nil {
		return v
	}
	if reissues := in.sys.Reissues(); maxReissues > 0 && reissues > uint64(maxReissues) {
		return &Violation{Kind: "livelock",
			Msg: fmt.Sprintf("%d retransmissions exceed the bound of %d: possible livelock", reissues, maxReissues)}
	}
	return nil
}

// dupModifiedScan walks every cache for a line Modified in two of them,
// naming the two holders in row-major order.
func (in *instance) dupModifiedScan() *Violation {
	n := in.sc.N
	holders := &in.dupSeen
	holders.Clear()
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			id := topology.Coord{Row: r, Col: c}
			var dup *Violation
			in.sys.Node(id).Cache().ForEach(func(e *cache.Entry) {
				if e.State != coherence.Modified || dup != nil {
					return
				}
				if first, ok := holders.Get(uint64(e.Line)); ok {
					dup = &Violation{Kind: "invariant",
						Msg: fmt.Sprintf("line %d modified in two caches at once: %v and %v", e.Line, first, id)}
					return
				}
				holders.Put(uint64(e.Line), id)
			})
			if dup != nil {
				return dup
			}
		}
	}
	return nil
}

// quiescenceCheck: program completion, the full Appendix A global-state
// oracle, and the SC witness.
func (in *instance) quiescenceCheck() *Violation {
	return in.quiescence(func() []error { return coherence.CheckInvariants(in.sys) })
}

// --- canonical fingerprints ----------------------------------------------

// canonicalFP fingerprints the machine AND driver state (program
// counters, lock bookkeeping, remaining programs) so that states equal
// up to a row relabeling crossed with an admissible column relabeling
// (one fixing every home column the programs use — see colsym.go) get
// one value. The sequential-consistency witness history is
// deliberately excluded: it grows monotonically and is checked along
// every execution rather than treated as state (write values are unique,
// so distinct histories almost always differ in machine state anyway).
//
// The default path is incremental: FPCache refreshes only the machine
// components the last kernel steps dirtied, the driver hashes refresh
// only for processors that issued or completed, and canonical combines
// the cached hashes under the relabelings that sort the signatures.
// shared.checkFP holds it to a from-scratch recompute and to the
// full-walk reference, and panics when they disagree.
func (in *instance) canonicalFP() uint64 {
	in.fpc.BeginPoint(in.extraRow)
	in.refreshDriver()
	fp, combines := in.canonical(in.fpc, in.drvH)
	in.fpn.FPPoints++
	in.fpn.FPCombines += uint64(combines)
	if in.sh.checkFP {
		in.crossCheckFP(fp)
	}
	return fp
}

// canonical is the canonical form by sorting (DESIGN.md §5.8). Each row
// and each free column gets a signature no admissible relabeling changes —
// the machine's from FPCache.Signatures, which carries the soundness
// argument, plus the driver hashes of the processors placed there — and
// only the relabelings that leave the signatures in non-decreasing order
// are combined (combines says how many); the minimum over those is the
// value. Ties are enumerated; a table of just the identity (more than
// four rows or free columns) is taken as it is.
func (in *instance) canonical(fpc *coherence.FPCache, drvH []uint64) (fp uint64, combines int) {
	sh := in.sh
	fpc.Signatures(sh.fixedCol, in.sigR, in.sigC)
	for p, pr := range in.sc.Procs {
		m := fphash.New()
		m.Word(drvH[p])
		if sh.fixedCol[pr.At.Col] {
			m.Word(uint64(pr.At.Col))
		}
		in.sigR[pr.At.Row] += m.Sum()
		in.sigC[pr.At.Col] += m.Sum()
	}
	nc := len(sh.cperms)
	fp = ^uint64(0)
	for ri, perm := range sh.perms {
		if len(sh.perms) > 1 && !inOrder(in.sigR, sh.invs[ri], nil) {
			continue
		}
		for ci, cperm := range sh.cperms {
			if nc > 1 && !inOrder(in.sigC, sh.cinvs[ci], sh.fixedCol) {
				continue
			}
			m := fphash.New()
			m.Word(fpc.FPRC(perm, sh.invs[ri], cperm, sh.cinvs[ci]))
			m.Word(in.driverCombine(ri*nc+ci, perm, cperm, drvH))
			if v := m.Sum(); v < fp {
				fp = v
			}
			combines++
		}
	}
	return fp, combines
}

// inOrder reports whether the relabeling with inverse inv (canonical →
// physical) visits sig in non-decreasing order, passing over the
// canonical positions marked in skip.
func inOrder(sig []uint64, inv []int, skip []bool) bool {
	prev := uint64(0)
	for canon, phys := range inv {
		if skip != nil && skip[canon] {
			continue
		}
		if sig[phys] < prev {
			return false
		}
		prev = sig[phys]
	}
	return true
}

// extraRow describes driver step events to FPCache: the issuer's
// physical coordinates plus a placement-independent remainder hash.
func (in *instance) extraRow(tag any) (row, col int, rest uint64, ok bool) {
	st, isStep := tag.(stepTag)
	if !isStep {
		return 0, 0, 0, false
	}
	at := in.sc.Procs[st.proc].At
	m := fphash.New()
	m.Word(uint64(st.step))
	return at.Row, at.Col, m.Sum(), true
}

// driverHash computes one processor's driver-state hash: program
// counter, static program, and held lock lines.
func (in *instance) driverHash(p int) uint64 {
	m := fphash.New()
	m.Word(uint64(in.pc[p]))
	m.Word(in.sh.progH[p])
	m.Word(uint64(len(in.held[p])))
	for _, l := range in.held[p] {
		m.Word(l)
	}
	return m.Sum()
}

func (in *instance) refreshDriver() {
	for p := range in.drvH {
		if !in.drvDirty[p] {
			in.fpn.FPIncremental++
			continue
		}
		in.drvDirty[p] = false
		in.fpn.FPRecomputes++
		in.drvH[p] = in.driverHash(p)
	}
}

// driverCombine folds the per-processor driver hashes in canonical
// (permuted row, permuted col) order — precomputed per relabeling pair
// in shared (permIdx = ri*len(cperms)+ci).
func (in *instance) driverCombine(permIdx int, perm, cperm []int, drvH []uint64) uint64 {
	m := fphash.New()
	for _, p := range in.sh.procOrder[permIdx] {
		at := in.sc.Procs[p].At
		m.Word(uint64(perm[at.Row]))
		m.Word(uint64(cperm[at.Col]))
		m.Word(drvH[p])
	}
	return m.Sum()
}

// crossCheckFP is the debug mode's pair of oracles (Options.CheckFP).
// A fresh all-dirty FPCache and fresh driver hashes go through the same
// canonical: a difference means a stale generation counter, nothing else.
// And the value is held in bijection with the full-walk reference over
// every relabeling, state by state: canonical may not merge what the
// reference splits nor split what it merges.
func (in *instance) crossCheckFP(got uint64) {
	fresh := coherence.NewFPCache(in.sys)
	fresh.BeginPoint(in.extraRow)
	for p, cached := range in.drvH {
		if h := in.driverHash(p); h != cached {
			panic(fmt.Sprintf("mc: stale incremental driver hash for proc %d: cached %#x, recomputed %#x", p, cached, h))
		}
	}
	if want, _ := in.canonical(fresh, in.drvH); want != got {
		panic(fmt.Sprintf("mc: incremental fingerprint diverged from recompute: incremental %#x, from-scratch %#x (scenario %s)", got, want, in.sc.Name))
	}
	in.sh.oracle.hold(got, in.canonicalFPLegacy(), in.sc.Name)
}

// canonicalFPLegacy is the reference: a full machine walk per relabeling
// (System.FingerprintRC), minimized over all of them. -checkfp holds
// canonical to it state by state.
func (in *instance) canonicalFPLegacy() uint64 {
	best := ^uint64(0)
	for _, perm := range in.sh.perms {
		for _, cperm := range in.sh.cperms {
			perm, cperm := perm, cperm
			extra := func(tag any) (uint64, bool) {
				st, ok := tag.(stepTag)
				if !ok {
					return 0, false
				}
				at := in.sc.Procs[st.proc].At
				m := fphash.New()
				m.Word(uint64(perm[at.Row]))
				m.Word(uint64(cperm[at.Col]))
				m.Word(uint64(st.step))
				return m.Sum(), true
			}
			m := fphash.New()
			m.Word(in.sys.FingerprintRC(perm, cperm, extra))
			m.Word(in.driverFP(perm, cperm))
			if fp := m.Sum(); fp < best {
				best = fp
			}
		}
	}
	return best
}

func (in *instance) driverFP(perm, cperm []int) uint64 {
	type ent struct {
		r, c int
		fp   uint64
	}
	ents := make([]ent, 0, len(in.sc.Procs))
	for p, pr := range in.sc.Procs {
		m := fphash.New()
		m.Word(uint64(in.pc[p]))
		m.Word(uint64(len(pr.Ops)))
		for _, op := range pr.Ops {
			m.Word(uint64(op.Kind))
			m.Word(op.Line)
		}
		for _, l := range in.held[p] { // already sorted
			m.Word(l)
		}
		ents = append(ents, ent{r: perm[pr.At.Row], c: cperm[pr.At.Col], fp: m.Sum()})
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].r != ents[j].r {
			return ents[i].r < ents[j].r
		}
		return ents[i].c < ents[j].c
	})
	m := fphash.New()
	for _, e := range ents {
		m.Word(uint64(e.r))
		m.Word(uint64(e.c))
		m.Word(e.fp)
	}
	return m.Sum()
}

// fpStats reports the execution's fingerprint cost, the machine cache's
// counts added to the driver's.
func (in *instance) fpStats() Cost {
	n := in.fpn
	r, u := in.fpc.Stats()
	n.FPRecomputes += r
	n.FPIncremental += u
	return n
}

// rowPermutations enumerates all relabelings of n rows: colPermutations
// with nothing fixed, its guard included. Beyond 4 rows the factorial is
// not worth it; canonicalization degrades gracefully to the identity
// (states are still distinguished, just not deduplicated across symmetric
// placements).
func rowPermutations(n int) [][]int { return colPermutations(n, make([]bool, n)) }
