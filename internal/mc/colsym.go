package mc

// Column-symmetry support. Rows of the Multicube are fully
// interchangeable, but columns are pinned by the home-column
// interleaving: line L's memory module, and therefore all of L's
// column-bus traffic, lives on column L % N. A column relabeling cperm
// therefore preserves reachability only when it fixes the home column
// of every line the scenario can touch — then the machine dynamics
// commute with the relabeling exactly as they do for rows (nodes are
// identical across columns, cache/MLT indexing keys on the unrelabeled
// line number, and memory modules of untouched home columns hold no
// fingerprint-visible state that distinguishes them).
//
// Scenarios that concentrate lines on few home columns (the -1col
// litmus family, anything on grids wider than its working set) leave
// the remaining columns freely permutable, shrinking the canonical
// state space by up to (N - used)! — on top of the N! row factor.

// usedHomeColumns returns, as a bitset-style bool slice of length
// sc.N, the home columns of every line named by the scenario's
// programs. Exploration only ever references program lines, so these
// are exactly the columns a relabeling must fix.
func usedHomeColumns(sc *Scenario) []bool {
	used := make([]bool, sc.N)
	for _, pr := range sc.Procs {
		for _, op := range pr.Ops {
			used[int(op.Line%uint64(sc.N))] = true
		}
	}
	return used
}

// colPermutations enumerates the relabelings of n columns that fix
// every column marked in fixed, permuting only the unmarked ones among
// themselves. More than 4 free columns degrades gracefully to the
// identity alone (the factorial guard rowPermutations shares).
func colPermutations(n int, fixed []bool) [][]int {
	ident := make([]int, n)
	free := make([]int, 0, n)
	for i := range ident {
		ident[i] = i
		if !fixed[i] {
			free = append(free, i)
		}
	}
	if len(free) <= 1 || len(free) > 4 {
		return [][]int{ident}
	}
	var out [][]int
	var rec func(rest, acc []int)
	rec = func(rest, acc []int) {
		if len(rest) == 0 {
			p := append([]int(nil), ident...)
			for i, col := range free {
				p[col] = acc[i]
			}
			out = append(out, p)
			return
		}
		for i := range rest {
			next := make([]int, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			rec(next, append(acc, rest[i]))
		}
	}
	rec(free, nil)
	return out
}
