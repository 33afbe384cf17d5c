package coherence

import (
	"fmt"
	"slices"
	"sort"

	"multicube/internal/cache"
	"multicube/internal/memory"
	"multicube/internal/mlt"
	"multicube/internal/topology"
)

// CheckInvariants walks every cache, modified line table and memory
// module and returns all violations of the paper's global-state
// invariants. It is meaningful only at quiescence — when no bus
// operations are in flight and no processor requests are outstanding —
// since the protocol admits transition periods where the global state is
// indeterminate (Section 3, footnote 3).
//
// The invariants checked:
//
//  1. A line is held modified (or reserved) by at most one cache
//     system-wide, and a modified line coexists with no shared copies.
//  2. A line is modified somewhere exactly when its memory valid bit is
//     clear.
//  3. Every shared copy equals the memory contents.
//  4. Each column's modified line table holds exactly the lines held
//     modified in that column. (The paper's copies of a column are one
//     table here, identical by construction.)
//  5. No reserved copies or pinned entries remain (a reserved copy at
//     quiescence means a SYNC handoff was lost).
//  6. Every upper-level cache view registered with RegisterInclusion is a
//     subset of its node's snooping cache (the multilevel inclusion
//     discipline: the write-through processor cache always holds a subset
//     of the snooping cache, so the latter can snoop on its behalf).
//  7. The holder index is the one the caches and requests give
//     (CheckHolderIndex, which holds at every instant).
func CheckInvariants(s *System) []error {
	var errs []error
	n := s.cfg.N

	type holder struct {
		id    topology.Coord
		state cache.State
	}
	holders := make(map[cache.Line][]holder)
	sharers := make(map[cache.Line][]topology.Coord)

	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			nd := s.nodes[r][c]
			if nd.pend != nil {
				errs = append(errs, fmt.Errorf("node %v has outstanding %v(%d): not quiescent",
					nd.id, nd.pend.txn, nd.pend.line))
			}
			if nd.wbCont != nil {
				errs = append(errs, fmt.Errorf("node %v has outstanding writeback: not quiescent", nd.id))
			}
			nd.l2.ForEach(func(e *cache.Entry) {
				switch e.State {
				case Modified:
					holders[e.Line] = append(holders[e.Line], holder{nd.id, e.State})
				case Reserved:
					errs = append(errs, fmt.Errorf("node %v holds line %d reserved at quiescence", nd.id, e.Line))
					holders[e.Line] = append(holders[e.Line], holder{nd.id, e.State})
				case Shared:
					sharers[e.Line] = append(sharers[e.Line], nd.id)
				}
				if e.Pinned && e.State != Modified {
					// A modified pinned line is a held (or queued-behind)
					// lock, which is legal at quiescence; anything else
					// pinned is a leak.
					errs = append(errs, fmt.Errorf("node %v line %d pinned in state %s at quiescence",
						nd.id, e.Line, StateName(e.State)))
				}
			})
		}
	}

	// Visit lines in sorted order everywhere below: the error list is
	// compared textually by tests and counterexample reports, so its order
	// must not depend on map iteration.
	holderLines := make([]cache.Line, 0, len(holders))
	for line := range holders {
		holderLines = append(holderLines, line)
	}
	sort.Slice(holderLines, func(i, j int) bool { return holderLines[i] < holderLines[j] })
	sharerLines := make([]cache.Line, 0, len(sharers))
	for line := range sharers {
		sharerLines = append(sharerLines, line)
	}
	sort.Slice(sharerLines, func(i, j int) bool { return sharerLines[i] < sharerLines[j] })

	// 1: single holder; no sharers alongside a modified copy.
	for _, line := range holderLines {
		hs := holders[line]
		if len(hs) > 1 {
			errs = append(errs, fmt.Errorf("line %d modified in %d caches: %v and %v",
				line, len(hs), hs[0].id, hs[1].id))
		}
		if sh := sharers[line]; len(sh) > 0 {
			errs = append(errs, fmt.Errorf("line %d modified at %v but shared at %v", line, hs[0].id, sh))
		}
	}

	// 2 & 3: memory valid bits and shared-copy contents.
	checkLine := func(line cache.Line) {
		mem := s.mems[s.homeColumn(line)]
		_, isMod := holders[line]
		if isMod == mem.store.Valid(memory.Line(line)) {
			errs = append(errs, fmt.Errorf("line %d: modified=%v but memory valid=%v",
				line, isMod, mem.store.Valid(memory.Line(line))))
		}
		if !isMod {
			want := mem.store.Peek(memory.Line(line))
			for _, id := range sharers[line] {
				e, ok := s.Node(id).l2.Lookup(line)
				if !ok {
					continue
				}
				for i := range want {
					if e.Data[i] != want[i] {
						errs = append(errs, fmt.Errorf("line %d word %d: node %v has %d, memory has %d",
							line, i, id, e.Data[i], want[i]))
						break
					}
				}
			}
		}
	}
	seen := make(map[cache.Line]bool)
	for _, line := range holderLines {
		if !seen[line] {
			seen[line] = true
			checkLine(line)
		}
	}
	for _, line := range sharerLines {
		if !seen[line] {
			seen[line] = true
			checkLine(line)
		}
	}

	// 4: MLT exactness.
	for c := 0; c < n; c++ {
		want := make(map[mlt.Line]bool)
		for _, line := range holderLines {
			for _, h := range holders[line] {
				if l := mlt.Line(line); h.id.Col == c && !want[l] {
					want[l] = true
					if !s.mlt.Contains(c, l) {
						errs = append(errs, fmt.Errorf("column %d: line %d modified in column but missing from MLT", c, l))
					}
				}
			}
		}
		for _, l := range s.mlt.AppendLines(c, nil) { // sorted
			if !want[l] {
				errs = append(errs, fmt.Errorf("column %d: MLT entry for line %d with no modified copy in column", c, l))
			}
		}
	}

	// 6: multilevel inclusion. Views are walked in registration order and
	// report their lines sorted, keeping the error list deterministic.
	for _, iv := range s.inclusions {
		nd := s.Node(iv.node)
		for _, line := range iv.lines() {
			if _, ok := nd.l2.Lookup(line); !ok {
				errs = append(errs, fmt.Errorf("%s: L1 line %d not in snooping cache at %v (inclusion violated)",
					iv.label, line, iv.node))
			}
		}
	}
	return append(errs, CheckHolderIndex(s)...)
}

// CheckHolderIndex rebuilds the holder index from the nodes' caches and
// requests and returns every way the machine's differs: the READ masks,
// and the entries of lines (of all lines held or named when none are
// given). Unlike invariants 1–6 it holds at every instant.
func CheckHolderIndex(s *System, lines ...cache.Line) []error {
	var errs []error
	n := s.cfg.N
	if lines == nil {
		add := func(line, _ uint64) { lines = append(lines, cache.Line(line)) }
		for i := 0; i < n; i++ {
			for _, nd := range s.nodes[i] {
				nd.l2.ForEach(func(e *cache.Entry) { add(uint64(e.Line), 0) })
			}
			s.sharers[i].Each(add)
			s.owners[i].Each(add)
		}
		slices.Sort(lines)
		lines = slices.Compact(lines)
	}
	for i := 0; i < n; i++ {
		var readers uint64
		for c, nd := range s.nodes[i] {
			if nd.pend != nil && nd.pend.txn == READ {
				readers |= 1 << c
			}
		}
		if readers != s.readers[i] {
			errs = append(errs, fmt.Errorf("holder index: row %d has READs outstanding at columns %b, the index says %b", i, readers, s.readers[i]))
		}
		for _, line := range lines {
			var shared, owned uint64 // at the columns of row i, the rows of column i
			for j := 0; j < n; j++ {
				if e, ok := s.nodes[i][j].l2.Lookup(line); ok && e.State == Shared {
					shared |= 1 << j
				}
				if e, ok := s.nodes[j][i].l2.Lookup(line); ok && e.State >= Modified {
					owned |= 1 << j
				}
			}
			gotShared, _ := s.sharers[i].Get(uint64(line))
			if gotOwned, _ := s.owners[i].Get(uint64(line)); gotShared != shared || gotOwned != owned {
				errs = append(errs, fmt.Errorf("holder index: line %d shared at row %d's columns %b, owned at column %d's rows %b; the index says %b and %b",
					line, i, shared, i, owned, gotShared, gotOwned))
			}
		}
	}
	return errs
}

// inclusionView is one upper-level cache registered for the inclusion
// check.
type inclusionView struct {
	label string
	node  topology.Coord
	lines func() []cache.Line
}

// RegisterInclusion records an upper-level (write-through processor)
// cache in front of the snooping cache at node: CheckInvariants
// thereafter enforces that every line lines() reports is present
// non-invalid in that snooping cache. lines must report in a
// deterministic (sorted) order.
func (s *System) RegisterInclusion(label string, node topology.Coord, lines func() []cache.Line) {
	s.inclusions = append(s.inclusions, inclusionView{label: label, node: node, lines: lines})
}
