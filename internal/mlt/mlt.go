// Package mlt implements the modified line table of Section 3: an
// auxiliary tag store, one per processor, recording the addresses of all
// lines held in modified mode by caches in that processor's column. All
// tables in a column are kept identical by column-bus INSERT and REMOVE
// side effects, so a row-bus request can be routed to the column holding
// the modified line.
//
// The table is finite; on overflow the displaced line must be written back
// to main memory and changed to global state unmodified (footnote 7 —
// "this is why the modified line table is likely to be implemented as a
// cache"). Replacement is deterministic (LRU over insertions), so that
// every table in a column evicts the same entry for the same operation
// sequence — the property the protocol's overflow handling relies on.
// The package participates in the explorer's determinism contract: no
// wall clock, no map-order dependence, no scheduling outside the chooser
// seam. multicube-vet enforces this (see internal/analysis).
//
//multicube:deterministic
package mlt

import (
	"fmt"
	"slices"

	"multicube/internal/linetable"
)

// Line addresses a coherency block; it matches cache.Line.
type Line uint64

// Config sizes a table. Entries == 0 means unbounded (no overflow).
type Config struct {
	Entries int
	Assoc   int // 0 with nonzero Entries means fully associative
}

func (c Config) validate() error {
	if c.Entries < 0 {
		return fmt.Errorf("mlt: negative entry count %d", c.Entries)
	}
	if c.Entries > 0 {
		assoc := c.Assoc
		if assoc == 0 {
			assoc = c.Entries
		}
		if assoc < 1 || c.Entries%assoc != 0 {
			return fmt.Errorf("mlt: %d entries not divisible by associativity %d", c.Entries, assoc)
		}
	}
	return nil
}

type entry struct {
	line  Line
	used  uint64
	valid bool
}

// Table is one modified line table.
type Table struct {
	cfg   Config
	sets  [][]entry                 // bounded mode
	table linetable.Table[struct{}] // unbounded mode
	clock uint64

	inserts   uint64
	removes   uint64
	failures  uint64
	overflows uint64
}

// New returns an empty table.
func New(cfg Config) (*Table, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Table{cfg: cfg}
	if cfg.Entries > 0 {
		assoc := cfg.Assoc
		if assoc == 0 {
			assoc = cfg.Entries
		}
		nsets := cfg.Entries / assoc
		t.sets = make([][]entry, nsets)
		for i := range t.sets {
			t.sets[i] = make([]entry, assoc)
		}
	}
	return t, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Table {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Saved is a caller-owned buffer holding a table's contents, replacement
// clock and counters. Save fills it and keeps its capacity.
type Saved struct {
	entries []entry                   // the bounded table's slots, in set order
	table   linetable.Table[struct{}] // the unbounded table
	clock   uint64
	stats   Stats
}

// Save copies the table's contents into st.
func (t *Table) Save(st *Saved) {
	st.entries = st.entries[:0]
	for _, set := range t.sets {
		st.entries = append(st.entries, set...)
	}
	st.table.CopyFrom(&t.table)
	st.clock, st.stats = t.clock, t.Stats()
}

// Load replaces the table's contents with what Save copied from it (or
// from a table of the same configuration).
func (t *Table) Load(st *Saved) {
	entries := st.entries
	for _, set := range t.sets {
		entries = entries[copy(set, entries):]
	}
	t.table.CopyFrom(&st.table)
	t.clock = st.clock
	t.inserts, t.removes, t.failures, t.overflows = st.stats.Inserts, st.stats.Removes, st.stats.Failures, st.stats.Overflows
}

func (t *Table) bounded() bool { return t.cfg.Entries > 0 }

func (t *Table) setOf(line Line) []entry {
	return t.sets[uint64(line)%uint64(len(t.sets))]
}

// Contains reports whether line has an entry — the check a controller
// performs when snooping a row-bus request ("table entry found").
func (t *Table) Contains(line Line) bool {
	if !t.bounded() {
		_, ok := t.table.Get(uint64(line))
		return ok
	}
	set := t.setOf(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			return true
		}
	}
	return false
}

// Insert adds line, returning the displaced line and true on overflow.
// Inserting a present line refreshes it and never overflows.
func (t *Table) Insert(line Line) (victim Line, overflow bool) {
	t.inserts++
	t.clock++
	if !t.bounded() {
		t.table.Put(uint64(line), struct{}{})
		return 0, false
	}
	set := t.setOf(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			set[i].used = t.clock
			return 0, false
		}
	}
	slot := -1
	for i := range set {
		if !set[i].valid {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = 0
		for i := 1; i < len(set); i++ {
			if set[i].used < set[slot].used {
				slot = i
			}
		}
		victim, overflow = set[slot].line, true
		t.overflows++
	}
	set[slot] = entry{line: line, used: t.clock, valid: true}
	return victim, overflow
}

// Remove deletes line, reporting whether an entry was found — the
// "remove failed" test that detects lost races in the protocol.
func (t *Table) Remove(line Line) bool {
	t.removes++
	if !t.bounded() {
		if t.table.Delete(uint64(line)) {
			return true
		}
		t.failures++
		return false
	}
	set := t.setOf(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			set[i] = entry{}
			return true
		}
	}
	t.failures++
	return false
}

// Len reports the number of entries.
func (t *Table) Len() int {
	if !t.bounded() {
		return t.table.Len()
	}
	n := 0
	for _, set := range t.sets {
		for i := range set {
			if set[i].valid {
				n++
			}
		}
	}
	return n
}

// AppendLines appends all entries to dst in ascending order: into a
// caller's buffer for the fingerprint, into nil for invariant checks.
func (t *Table) AppendLines(dst []Line) []Line {
	start := len(dst)
	t.table.Each(func(l uint64, _ struct{}) { dst = append(dst, Line(l)) })
	for _, set := range t.sets {
		for i := range set {
			if set[i].valid {
				dst = append(dst, set[i].line)
			}
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// Stats reports operation counters.
type Stats struct {
	Inserts   uint64
	Removes   uint64
	Failures  uint64 // removes that found no entry (lost races)
	Overflows uint64
}

// Stats returns a snapshot of the counters.
func (t *Table) Stats() Stats {
	return Stats{Inserts: t.inserts, Removes: t.removes, Failures: t.failures, Overflows: t.overflows}
}

// Equal reports whether two tables hold exactly the same set of lines —
// the identical-within-a-column invariant.
func Equal(a, b *Table) bool {
	la, lb := a.AppendLines(nil), b.AppendLines(nil)
	if len(la) != len(lb) {
		return false
	}
	for i := range la {
		if la[i] != lb[i] {
			return false
		}
	}
	return true
}
