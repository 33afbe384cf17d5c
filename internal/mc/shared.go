package mc

import (
	"fmt"
	"sort"

	"multicube/internal/coherence"
	"multicube/internal/fphash"
)

// shared holds the cross-run immutable data of one exploration, computed
// once instead of per from-scratch execution: the row (or processor)
// relabelings with their precomputed inverses, the per-relabeling driver
// combine order, and the static per-processor program hashes. Everything
// but the debug oracle is read-only after construction.
type shared struct {
	perms [][]int
	invs  [][]int
	// cperms/cinvs are the admissible column relabelings (grid scenarios
	// only): every permutation fixing the home column of each line the
	// programs name. SingleBus scenarios, and grids whose programs touch
	// every home column, get just the identity.
	cperms [][]int
	cinvs  [][]int
	// fixedCol marks the columns no relabeling in cperms moves: the home
	// columns in use, or every column when cperms is just the identity.
	fixedCol []bool
	// procOrder, for grid scenarios, lists processor indices in canonical
	// (permuted row, permuted col) order per (row, column) relabeling
	// pair, indexed ri*len(cperms)+ci — the sort the legacy driver
	// fingerprint performed per call. Unused for SingleBus scenarios,
	// where canonical order is inv itself.
	procOrder [][]int
	// progH is each processor's static program hash (op kinds and lines).
	progH []uint64

	checkFP bool
	oracle  fpOracle // checkFP only
	// scNodes is the per-execution node budget for cross-address
	// sequential-consistency searches (Options.SCNodes; zero = memmodel's
	// default). Consulted only when the scenario sets CheckSC.
	scNodes int
	// instrument is Options.Instrument: a passive per-machine hook
	// installer for grid scenarios.
	instrument func(*coherence.System)
}

func newShared(sc *Scenario, opts *Options) *shared {
	sh := &shared{checkFP: opts.CheckFP, scNodes: opts.SCNodes, instrument: opts.Instrument}
	n := sc.N
	if sc.SingleBus {
		n = len(sc.Procs)
	}
	sh.perms = rowPermutations(n)
	sh.invs = inverses(sh.perms)
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
	if !sc.SingleBus {
		sh.fixedCol = usedHomeColumns(sc)
		sh.cperms = colPermutations(n, sh.fixedCol)
		if len(sh.cperms) == 1 {
			for c := range sh.fixedCol {
				sh.fixedCol[c] = true
			}
		}
		sh.cinvs = inverses(sh.cperms)
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

// inverses inverts each relabeling (physical → canonical) of perms.
func inverses(perms [][]int) [][]int {
	invs := make([][]int, len(perms))
	for i, perm := range perms {
		invs[i] = make([]int, len(perm))
		for phys, canon := range perm {
			invs[i][canon] = phys
		}
	}
	return invs
}

// fpOracle is -checkfp's per-state partition oracle: every canonical
// fingerprint seen so far with the full-walk reference fingerprint of the
// same state, both ways.
type fpOracle struct {
	to, from map[uint64]uint64 // canonical → reference, reference → canonical
}

// hold records one state's canonical and reference fingerprints and
// panics unless the pairs seen so far are a bijection: the two must
// induce the same partition of the states.
func (o *fpOracle) hold(fp, ref uint64, scenario string) {
	if o.to == nil {
		o.to, o.from = make(map[uint64]uint64), make(map[uint64]uint64)
	}
	if r, ok := o.to[fp]; ok && r != ref {
		panic(fmt.Sprintf("mc: canonical fingerprint %#x merges states the reference splits (%#x and %#x, scenario %s)", fp, r, ref, scenario))
	}
	if f, ok := o.from[ref]; ok && f != fp {
		panic(fmt.Sprintf("mc: canonical fingerprints %#x and %#x split states the reference merges (%#x, scenario %s)", f, fp, ref, scenario))
	}
	o.to[fp], o.from[ref] = ref, fp
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
