// Package memory implements the main-memory storage substrate: a sparse
// word store with the per-line valid ("tag") bit of Section 3. In the
// Wisconsin Multicube, main memory is divided among the column buses and
// interleaved by line; each module holds only the lines whose home column
// it sits on. The single tag bit per line indicates whether the memory
// contents are current ("unmodified") or stale because some cache holds
// the line modified; it is what lets the protocol safely reissue requests
// that were routed to memory while the modified line tables were in an
// inconsistent state.
//
// The store is purely functional state: latency and bus behaviour are
// modeled by the coherence package's memory agent.
// The package participates in the explorer's determinism contract: no
// wall clock, no map-order dependence, no scheduling outside the chooser
// seam. multicube-vet enforces this (see internal/analysis).
//
//multicube:deterministic
package memory

import (
	"fmt"
	"sort"

	"multicube/internal/linetable"
)

// Line addresses a coherency block.
type Line uint64

// Store is one memory module's contents. Lines are zero-filled and valid
// until written or invalidated, matching a machine that boots with memory
// owning every line.
type Store struct {
	blockWords int
	data       linetable.Table[[]uint64] // written lines
	invalid    linetable.Table[struct{}] // lines whose valid bit is clear
	// spare is Load's scratch: the blocks in place, while it rebuilds data
	// out of them.
	spare [][]uint64

	reads       uint64
	writes      uint64
	invalidates uint64
	reissues    uint64
}

// NewStore returns an empty module with the given block size in words.
func NewStore(blockWords int) (*Store, error) {
	if blockWords < 1 {
		return nil, fmt.Errorf("memory: block size %d words, need at least 1", blockWords)
	}
	return &Store{blockWords: blockWords}, nil
}

// MustNewStore is NewStore but panics on error.
func MustNewStore(blockWords int) *Store {
	s, err := NewStore(blockWords)
	if err != nil {
		panic(err)
	}
	return s
}

// Saved is a caller-owned buffer holding a module's contents, valid bits
// and counters. Save fills it and keeps its capacity.
type Saved struct {
	// lines are the written lines in table order; words holds one block
	// per line, in the same order.
	lines   []Line
	words   []uint64
	invalid linetable.Table[struct{}]
	stats   Stats
}

// Save copies the module's contents into st.
func (s *Store) Save(st *Saved) {
	st.lines, st.words = st.lines[:0], st.words[:0]
	s.data.Each(func(l uint64, buf []uint64) {
		st.lines = append(st.lines, Line(l))
		st.words = append(st.words, buf...)
	})
	st.invalid.CopyFrom(&s.invalid)
	st.stats = s.Stats()
}

// Load replaces the module's contents with what Save copied from it (or
// from a module of the same block size), reusing the blocks it holds.
func (s *Store) Load(st *Saved) {
	spare := s.spare[:0]
	s.data.Each(func(_ uint64, buf []uint64) { spare = append(spare, buf) })
	s.data.Clear()
	for i, l := range st.lines {
		var buf []uint64
		if n := len(spare); n > 0 {
			buf, spare = spare[n-1], spare[:n-1]
		} else {
			buf = make([]uint64, s.blockWords)
		}
		copy(buf, st.words[i*s.blockWords:])
		s.data.Put(uint64(l), buf)
	}
	clear(spare) // blocks the saved module has no use for go to the collector
	s.spare = spare[:0]
	s.invalid.CopyFrom(&st.invalid)
	s.reads, s.writes, s.invalidates, s.reissues = st.stats.Reads, st.stats.Writes, st.stats.Invalidates, st.stats.Reissues
}

// BlockWords returns the block size in words.
func (s *Store) BlockWords() int { return s.blockWords }

// Valid reports the line's tag bit: true when memory holds the current
// value.
func (s *Store) Valid(line Line) bool {
	_, invalid := s.invalid.Get(uint64(line))
	return !invalid
}

// Read returns a copy of the line's contents. Reading an invalid line is
// the caller's protocol error; the store returns the stale words, exactly
// as the hardware would.
func (s *Store) Read(line Line) []uint64 {
	s.reads++
	return s.Peek(line)
}

// ReadInto is Read into dst, a block the caller owns.
func (s *Store) ReadInto(line Line, dst []uint64) {
	s.reads++
	buf, _ := s.data.Get(uint64(line))
	clear(dst[copy(dst, buf):])
}

// Peek is Read without statistics, for invariant checkers.
func (s *Store) Peek(line Line) []uint64 {
	out := make([]uint64, s.blockWords)
	buf, _ := s.data.Get(uint64(line))
	copy(out, buf)
	return out
}

// Write stores data (zero-extended to a block) and sets the valid bit —
// the protocol's "write memory line and mark line valid".
func (s *Store) Write(line Line, data []uint64) {
	s.writes++
	buf, ok := s.data.Get(uint64(line))
	if !ok {
		buf = make([]uint64, s.blockWords)
		s.data.Put(uint64(line), buf)
	}
	clear(buf[copy(buf, data):])
	s.invalid.Delete(uint64(line))
}

// Invalidate clears the valid bit — the line is now modified in some
// cache and the memory copy is stale.
func (s *Store) Invalidate(line Line) {
	s.invalidates++
	s.invalid.Put(uint64(line), struct{}{})
}

// CountReissue records that a request arrived for an invalid line and was
// retransmitted (the robustness path of Section 3).
func (s *Store) CountReissue() { s.reissues++ }

// Stats reports module activity.
type Stats struct {
	Reads       uint64
	Writes      uint64
	Invalidates uint64
	Reissues    uint64
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{Reads: s.reads, Writes: s.writes, Invalidates: s.invalidates, Reissues: s.reissues}
}

// InvalidLines returns the number of lines currently marked invalid.
func (s *Store) InvalidLines() int { return s.invalid.Len() }

// ForEach visits, in ascending line order, every line whose state differs
// from the boot state (all-zero contents, valid). State fingerprints in
// the model checker are built from this, so a line written back to zero
// is indistinguishable from one never written — exactly the semantics of
// the zero-filled store.
func (s *Store) ForEach(fn func(line Line, valid bool, data []uint64)) {
	lines := make([]Line, 0, s.data.Len()+s.invalid.Len())
	s.data.Each(func(l uint64, _ []uint64) { lines = append(lines, Line(l)) })
	s.invalid.Each(func(l uint64, _ struct{}) {
		if _, written := s.data.Get(l); !written {
			lines = append(lines, Line(l))
		}
	})
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, l := range lines {
		valid := s.Valid(l)
		data, _ := s.data.Get(uint64(l))
		if valid {
			zero := true
			for _, w := range data {
				if w != 0 {
					zero = false
					break
				}
			}
			if zero {
				continue
			}
		}
		buf := make([]uint64, s.blockWords)
		copy(buf, data)
		fn(l, valid, buf)
	}
}
