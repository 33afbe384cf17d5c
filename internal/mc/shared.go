package mc

import (
	"sort"

	"multicube/internal/coherence"
	"multicube/internal/fphash"
)

// shared holds the cross-run immutable data of one exploration, computed
// once instead of per from-scratch execution: the row (or processor)
// relabelings with their precomputed inverses, the per-relabeling driver
// combine order, and the static per-processor program hashes. It is safe
// for concurrent use by parallel workers: everything is read-only after
// construction.
type shared struct {
	perms [][]int
	invs  [][]int
	// cperms/cinvs are the admissible column relabelings (grid scenarios
	// only): every permutation fixing the home column of each line the
	// programs name. SingleBus scenarios, and grids whose programs touch
	// every home column, get just the identity.
	cperms [][]int
	cinvs  [][]int
	// procOrder, for grid scenarios, lists processor indices in canonical
	// (permuted row, permuted col) order per (row, column) relabeling
	// pair, indexed ri*len(cperms)+ci — the sort the legacy driver
	// fingerprint performed per call. Unused for SingleBus scenarios,
	// where canonical order is inv itself.
	procOrder [][]int
	// progH is each processor's static program hash (op kinds and lines).
	progH []uint64
	// stepCls precomputes the tagClass of every (processor, step) driver
	// event: classify runs per candidate per choice point, and driver
	// step classes are static.
	stepCls [][]tagClass

	legacyFP bool
	checkFP  bool
	// scNodes is the per-execution node budget for cross-address
	// sequential-consistency searches (Options.SCNodes; zero = memmodel's
	// default). Consulted only when the scenario sets CheckSC.
	scNodes int
	// instrument is Options.Instrument: a passive per-machine hook
	// installer for grid scenarios.
	instrument func(*coherence.System)
}

func newShared(sc *Scenario, opts *Options) *shared {
	sh := &shared{legacyFP: opts.legacyFP, checkFP: opts.CheckFP, scNodes: opts.SCNodes, instrument: opts.Instrument}
	n := sc.N
	if sc.SingleBus {
		n = len(sc.Procs)
	}
	sh.perms = rowPermutations(n)
	sh.invs = make([][]int, len(sh.perms))
	for i, perm := range sh.perms {
		inv := make([]int, len(perm))
		for phys, canon := range perm {
			inv[canon] = phys
		}
		sh.invs[i] = inv
	}
	sh.progH = make([]uint64, len(sc.Procs))
	for p, pr := range sc.Procs {
		m := fphash.New()
		m.Word(uint64(len(pr.Ops)))
		for _, op := range pr.Ops {
			m.Word(uint64(op.Kind))
			m.Word(op.Line)
		}
		sh.progH[p] = m.Sum()
	}
	sh.stepCls = make([][]tagClass, len(sc.Procs))
	for p, pr := range sc.Procs {
		sh.stepCls[p] = make([]tagClass, len(pr.Ops)+1)
		for step := range sh.stepCls[p] {
			m := fphash.New()
			m.Word(0x20)
			m.Word(uint64(p))
			m.Word(uint64(step))
			sh.stepCls[p][step] = tagClass{kind: tkStep, bus: -1, at: pr.At, fp: m.Sum()}
		}
	}
	if !sc.SingleBus {
		sh.cperms = colPermutations(n, usedHomeColumns(sc))
		sh.cinvs = make([][]int, len(sh.cperms))
		for i, cperm := range sh.cperms {
			cinv := make([]int, len(cperm))
			for phys, canon := range cperm {
				cinv[canon] = phys
			}
			sh.cinvs[i] = cinv
		}
		sh.procOrder = make([][]int, len(sh.perms)*len(sh.cperms))
		for ri, perm := range sh.perms {
			for ci, cperm := range sh.cperms {
				order := make([]int, len(sc.Procs))
				for p := range order {
					order[p] = p
				}
				sort.SliceStable(order, func(a, b int) bool {
					pa, pb := sc.Procs[order[a]].At, sc.Procs[order[b]].At
					ra, rb := perm[pa.Row], perm[pb.Row]
					if ra != rb {
						return ra < rb
					}
					return cperm[pa.Col] < cperm[pb.Col]
				})
				sh.procOrder[ri*len(sh.cperms)+ci] = order
			}
		}
	}
	return sh
}

// heldAdd inserts line into the sorted held-lines slice (no-op if
// present). The slices are tiny — at most a program's lock count.
func heldAdd(s []uint64, line uint64) []uint64 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= line })
	if i < len(s) && s[i] == line {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = line
	return s
}

func heldHas(s []uint64, line uint64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= line })
	return i < len(s) && s[i] == line
}

func heldRemove(s []uint64, line uint64) []uint64 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= line })
	if i >= len(s) || s[i] != line {
		return s
	}
	return append(s[:i], s[i+1:]...)
}
