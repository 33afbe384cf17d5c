// Package mlt implements the modified line tables of Section 3: an
// auxiliary tag store per column recording the addresses of all lines
// held in modified mode by caches in that column, so a row-bus request can
// be routed to the column holding the modified line. The paper gives each
// processor a copy, kept identical within a column by column-bus INSERT
// and REMOVE side effects; here each column has one table, and one line
// table maps a line to the columns holding it (Columns).
//
// A table is finite; on overflow the displaced line must be written back
// to main memory and changed to global state unmodified (footnote 7 —
// "this is why the modified line table is likely to be implemented as a
// cache"). Replacement is deterministic (LRU over insertions) — the
// property that kept the paper's copies of a column identical.
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

// MaxColumns is the most columns a Table holds: a column set is one word.
const MaxColumns = 64

// Config sizes each column's table. Entries == 0 means unbounded (no
// overflow).
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

// column is one column's LRU sets, replacement clock and counters.
type column struct {
	sets  [][]entry // bounded mode
	clock uint64
	stats Stats
}

// Table is the modified line tables of a machine's columns.
type Table struct {
	cfg     Config
	cols    []column
	members linetable.Table[uint64] // line → columns holding it, bit c for column c
	gen     uint64                  // counts Insert and Remove; Load restores it
}

// New returns empty tables for n columns.
func New(cfg Config, n int) (*Table, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n < 1 || n > MaxColumns {
		return nil, fmt.Errorf("mlt: %d columns, want 1 to at most %d (a set of columns is one word)", n, MaxColumns)
	}
	t := &Table{cfg: cfg, cols: make([]column, n)}
	if cfg.Entries > 0 {
		assoc := cfg.Assoc
		if assoc == 0 {
			assoc = cfg.Entries
		}
		for c := range t.cols {
			t.cols[c].sets = make([][]entry, cfg.Entries/assoc)
			for i := range t.cols[c].sets {
				t.cols[c].sets[i] = make([]entry, assoc)
			}
		}
	}
	return t, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, n int) *Table {
	t, err := New(cfg, n)
	if err != nil {
		panic(err)
	}
	return t
}

// Saved is a caller-owned buffer holding the tables' contents,
// replacement clocks and counters. Save fills it and keeps its capacity.
type Saved struct {
	entries []entry // every bounded column's slots, column by column in set order
	clocks  []uint64
	stats   []Stats
	members linetable.Table[uint64]
	gen     uint64
}

// Save copies the tables' contents into st.
func (t *Table) Save(st *Saved) {
	st.entries, st.clocks, st.stats = st.entries[:0], st.clocks[:0], st.stats[:0]
	for c := range t.cols {
		col := &t.cols[c]
		for _, set := range col.sets {
			st.entries = append(st.entries, set...)
		}
		st.clocks, st.stats = append(st.clocks, col.clock), append(st.stats, col.stats)
	}
	st.members.CopyFrom(&t.members)
	st.gen = t.gen
}

// Load replaces the tables' contents with what Save copied from them (or
// from tables of the same configuration).
func (t *Table) Load(st *Saved) {
	entries := st.entries
	for c := range t.cols {
		col := &t.cols[c]
		for _, set := range col.sets {
			entries = entries[copy(set, entries):]
		}
		col.clock, col.stats = st.clocks[c], st.stats[c]
	}
	t.members.CopyFrom(&st.members)
	t.gen = st.gen
}

// Gen returns the generation, which every Insert and Remove bumps.
func (t *Table) Gen() uint64 { return t.gen }

func (t *Table) bounded() bool { return t.cfg.Entries > 0 }

func (col *column) setOf(line Line) []entry {
	return col.sets[uint64(line)%uint64(len(col.sets))]
}

// Columns returns the columns whose table holds line, bit c for column c.
func (t *Table) Columns(line Line) uint64 {
	m, _ := t.members.Get(uint64(line))
	return m
}

// Contains reports whether column c's table has an entry for line — the
// check a controller performs when snooping a row-bus request ("table
// entry found").
func (t *Table) Contains(c int, line Line) bool { return t.Columns(line)&(1<<c) != 0 }

// Insert adds line to column c's table, returning the displaced line and
// true on overflow. Inserting a present line refreshes it and never
// overflows.
func (t *Table) Insert(c int, line Line) (victim Line, overflow bool) {
	t.gen++
	col := &t.cols[c]
	col.stats.Inserts++
	col.clock++
	m := t.Columns(line)
	if m&(1<<c) == 0 {
		t.members.Put(uint64(line), m|1<<c)
	}
	if !t.bounded() {
		return 0, false
	}
	set := col.setOf(line)
	slot := -1
	for i := range set {
		switch {
		case set[i].valid && set[i].line == line:
			set[i].used = col.clock
			return 0, false
		case !set[i].valid && slot < 0:
			slot = i
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
		col.stats.Overflows++
		t.drop(c, victim)
	}
	set[slot] = entry{line: line, used: col.clock, valid: true}
	return victim, overflow
}

func (t *Table) drop(c int, line Line) {
	if m := t.Columns(line) &^ (1 << c); m != 0 {
		t.members.Put(uint64(line), m)
	} else {
		t.members.Delete(uint64(line))
	}
}

// Remove deletes line from column c's table, reporting whether an entry
// was found — the "remove failed" test that detects lost races in the
// protocol.
func (t *Table) Remove(c int, line Line) bool {
	t.gen++
	col := &t.cols[c]
	col.stats.Removes++
	if !t.Contains(c, line) {
		col.stats.Failures++
		return false
	}
	t.drop(c, line)
	if t.bounded() {
		set := col.setOf(line)
		for i := range set {
			if set[i].valid && set[i].line == line {
				set[i] = entry{}
			}
		}
	}
	return true
}

// AppendLines appends column c's entries to dst in ascending order: into
// a caller's buffer for the fingerprint, into nil for invariant checks.
// It reads every column's lines, so a caller that wants the lines of
// several nodes of one column reads them once.
func (t *Table) AppendLines(c int, dst []Line) []Line {
	start := len(dst)
	t.members.Each(func(l uint64, m uint64) {
		if m&(1<<c) != 0 {
			dst = append(dst, Line(l))
		}
	})
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

// Stats returns a snapshot of column c's counters.
func (t *Table) Stats(c int) Stats { return t.cols[c].stats }
