// Package cache implements the cache stores of the Wisconsin Multicube
// memory hierarchy: the small write-through processor cache (SRAM) and the
// very large snooping cache (DRAM) that the coherence protocol operates on.
//
// The store is policy-free: it tracks tags, per-line state, data, and LRU
// order, but the meaning of states and all coherence actions live in the
// protocol packages. State zero (Invalid) is universal; invalid entries
// retain their tags so a controller can recognize a recently-held line as
// it passes on a bus and "snarf" it (Section 3).
//
// A Config with Lines == 0 produces an unbounded cache (no capacity
// evictions), which models the paper's assumption that the snooping cache
// is "comparable to main memory on most current machines" and private-data
// misses are negligible.
// The package participates in the explorer's determinism contract: no
// wall clock, no map-order dependence, no scheduling outside the chooser
// seam. multicube-vet enforces this (see internal/analysis).
//
//multicube:deterministic
package cache

import (
	"fmt"

	"multicube/internal/linetable"
)

// State is a per-line coherence state. The store interprets only Invalid
// (the zero value); protocols define and manage the rest.
type State uint8

// Invalid is the universal empty state. An invalid entry may still carry
// its tag (a retained tag) until the slot is reused.
const Invalid State = 0

// Line addresses a coherency block by index (the address divided by the
// block size in words).
type Line uint64

// Entry is one cache line. Callers may mutate State, Data and Pinned in
// place; the store owns the tag and the replacement metadata.
type Entry struct {
	Line  Line
	State State
	Data  []uint64
	// Pinned excludes the entry from victim selection. The SYNC queue
	// protocol pins lines reserved for a lock handoff: purging one would
	// break the distributed queue (Section 4's degenerate path).
	Pinned bool

	lastUse uint64
	valid   bool // slot holds a (possibly Invalid) tagged line
}

// Config sizes a cache.
type Config struct {
	// Lines is the total line capacity. Zero means unbounded.
	Lines int
	// Assoc is the set associativity. Ignored when Lines is zero; a value
	// of zero with nonzero Lines means fully associative.
	Assoc int
	// BlockWords is the coherency-block size in bus words. Entries are
	// allocated with this many data words.
	BlockWords int
}

func (c Config) validate() error {
	if c.BlockWords < 1 {
		return fmt.Errorf("cache: block size %d words, need at least 1", c.BlockWords)
	}
	if c.Lines < 0 {
		return fmt.Errorf("cache: negative line count %d", c.Lines)
	}
	if c.Lines > 0 {
		assoc := c.Assoc
		if assoc == 0 {
			assoc = c.Lines
		}
		if assoc < 1 || c.Lines%assoc != 0 {
			return fmt.Errorf("cache: %d lines not divisible by associativity %d", c.Lines, assoc)
		}
	}
	return nil
}

// Stats counts cache events. Hits and misses are recorded by Access;
// callers that use Lookup directly maintain their own counts.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Inserts   uint64
	Evictions uint64 // valid entries displaced by Insert
	Snarfs    uint64 // recorded by MarkSnarf
}

// Cache is a set-associative (or unbounded) line store.
type Cache struct {
	cfg   Config
	sets  [][]Entry               // bounded mode
	table linetable.Table[*Entry] // unbounded mode
	clock uint64
	stats Stats

	// refScratch is reused by ForEach, which fingerprinting and invariant
	// checkers call on every model-checker step.
	refScratch []entryRef
	// spare is Load's scratch: the entries in place, while it rebuilds the
	// unbounded cache's index out of them.
	spare []*Entry
}

// entryRef pairs a resident line with its entry for ForEach's ordered
// walk.
type entryRef struct {
	line Line
	e    *Entry
}

// New returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg}
	if cfg.Lines > 0 {
		assoc := cfg.Assoc
		if assoc == 0 {
			assoc = cfg.Lines
		}
		nsets := cfg.Lines / assoc
		c.sets = make([][]Entry, nsets)
		for i := range c.sets {
			c.sets[i] = make([]Entry, assoc)
		}
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Saved is a caller-owned buffer holding a cache's contents: every tagged
// line with its data, the replacement clock and the counters. Save fills
// it and keeps its capacity.
type Saved struct {
	// entries are the bounded cache's slots in set order (untagged ones
	// included), or the unbounded cache's lines in its table's order,
	// without their data: words holds one block per tagged entry, in the
	// same order.
	entries []Entry
	words   []uint64
	clock   uint64
	stats   Stats
}

// Save copies the cache's contents into st.
func (c *Cache) Save(st *Saved) {
	st.entries, st.words = st.entries[:0], st.words[:0]
	add := func(e *Entry) {
		st.words = append(st.words, e.Data...)
		st.entries = append(st.entries, *e)
		st.entries[len(st.entries)-1].Data = nil
	}
	for _, set := range c.sets {
		for i := range set {
			add(&set[i])
		}
	}
	c.table.Each(func(_ uint64, e *Entry) { add(e) })
	st.clock, st.stats = c.clock, c.stats
}

// Load replaces the cache's contents with what Save copied from it (or
// from a cache of the same configuration). Entries are rewritten in
// place or rebuilt, so an *Entry obtained before Load is dead after it.
func (c *Cache) Load(st *Saved) {
	words := st.words
	fill := func(dst *Entry, src *Entry) {
		data := dst.Data[:0]
		*dst = *src
		if src.valid {
			dst.Data = append(data, words[:c.cfg.BlockWords]...)
			words = words[c.cfg.BlockWords:]
		}
	}
	if c.bounded() {
		i := 0
		for _, set := range c.sets {
			for j := range set {
				fill(&set[j], &st.entries[i])
				i++
			}
		}
	} else {
		// The entries in place are rewritten rather than reallocated;
		// any the saved cache has no use for go to the collector.
		spare := c.spare[:0]
		c.table.Each(func(_ uint64, e *Entry) { spare = append(spare, e) })
		c.table.Clear()
		for i := range st.entries {
			var e *Entry
			if n := len(spare); n > 0 {
				e, spare = spare[n-1], spare[:n-1]
			} else {
				e = new(Entry)
			}
			fill(e, &st.entries[i])
			c.table.Put(uint64(e.Line), e)
		}
		clear(spare)
		c.spare = spare[:0]
	}
	c.clock, c.stats = st.clock, st.stats
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// BlockWords returns the coherency-block size in words.
func (c *Cache) BlockWords() int { return c.cfg.BlockWords }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) bounded() bool { return c.cfg.Lines > 0 }

func (c *Cache) setOf(line Line) []Entry {
	return c.sets[uint64(line)%uint64(len(c.sets))]
}

// Probe returns the entry holding line even if its state is Invalid (a
// retained tag), or nil when the line is not present at all.
func (c *Cache) Probe(line Line) *Entry {
	if !c.bounded() {
		e, _ := c.table.Get(uint64(line))
		return e
	}
	set := c.setOf(line)
	for i := range set {
		if set[i].valid && set[i].Line == line {
			return &set[i]
		}
	}
	return nil
}

// Lookup returns the entry for line when present in a non-Invalid state.
// It does not update LRU order; use Access for demand references.
func (c *Cache) Lookup(line Line) (*Entry, bool) {
	e := c.Probe(line)
	if e == nil || e.State == Invalid {
		return nil, false
	}
	return e, true
}

// Access is Lookup plus LRU touch and hit/miss accounting — a demand
// reference from the processor side.
func (c *Cache) Access(line Line) (*Entry, bool) {
	e, ok := c.Lookup(line)
	if ok {
		c.clock++
		e.lastUse = c.clock
		c.stats.Hits++
		return e, true
	}
	c.stats.Misses++
	return nil, false
}

// Touch refreshes the replacement age of line if present.
func (c *Cache) Touch(line Line) {
	if e := c.Probe(line); e != nil {
		c.clock++
		e.lastUse = c.clock
	}
}

// Victim describes an entry displaced by Insert.
type Victim struct {
	Line  Line
	State State
	Data  []uint64
	// Displaced is true when a tagged entry was evicted (its state may be
	// Invalid if only a retained tag was displaced).
	Displaced bool
}

// Insert places line into the cache in the given state, copying data (which
// may be nil to allocate a zeroed block, or shorter than a block to fill a
// prefix). It returns the line's entry, the state the line was in before
// (Invalid if absent) and the victim that was displaced, if any. Inserting
// a line that is already present overwrites its state and data in place
// and displaces nothing.
func (c *Cache) Insert(line Line, state State, data []uint64) (*Entry, State, Victim) {
	c.stats.Inserts++
	c.clock++
	if e := c.Probe(line); e != nil {
		was := e.State
		e.State, e.lastUse = state, c.clock
		fillBlock(e.Data, data)
		return e, was, Victim{}
	}
	if !c.bounded() {
		e := &Entry{Line: line, State: state, Data: make([]uint64, c.cfg.BlockWords), lastUse: c.clock, valid: true}
		fillBlock(e.Data, data)
		c.table.Put(uint64(line), e)
		return e, Invalid, Victim{}
	}
	set := c.setOf(line)
	slot := -1
	// Prefer an untagged slot, then an Invalid (retained-tag) slot, then
	// the least recently used.
	for i := range set {
		if !set[i].valid {
			slot = i
			break
		}
	}
	if slot < 0 {
		oldest := uint64(1<<63 - 1)
		for i := range set {
			if set[i].State == Invalid && !set[i].Pinned && set[i].lastUse < oldest {
				slot, oldest = i, set[i].lastUse
			}
		}
	}
	if slot < 0 {
		oldest := uint64(1<<63 - 1)
		for i := range set {
			if !set[i].Pinned && set[i].lastUse < oldest {
				slot, oldest = i, set[i].lastUse
			}
		}
	}
	if slot < 0 {
		// Every way is pinned: the configuration is too small for the
		// number of concurrently reserved lines. This is a modeling
		// error, not a runtime condition.
		panic(fmt.Sprintf("cache: all %d ways pinned in set of line %d", len(set), line))
	}
	var v Victim
	if set[slot].valid {
		v = Victim{Line: set[slot].Line, State: set[slot].State, Data: set[slot].Data, Displaced: true}
		if v.State != Invalid {
			c.stats.Evictions++
		}
	}
	set[slot] = Entry{Line: line, State: state, Data: make([]uint64, c.cfg.BlockWords), lastUse: c.clock, valid: true}
	fillBlock(set[slot].Data, data)
	return &set[slot], Invalid, v
}

// SelectVictim returns the entry that Insert would displace for line, or
// nil when a free slot exists (or the cache is unbounded or the line is
// already present). The protocol's transaction-initiation procedures use
// this to write back a modified victim before issuing the request.
func (c *Cache) SelectVictim(line Line) *Entry {
	if !c.bounded() || c.Probe(line) != nil {
		return nil
	}
	set := c.setOf(line)
	for i := range set {
		if !set[i].valid || (set[i].State == Invalid && !set[i].Pinned) {
			return nil
		}
	}
	slot := -1
	for i := range set {
		if set[i].Pinned {
			continue
		}
		if slot < 0 || set[i].lastUse < set[slot].lastUse {
			slot = i
		}
	}
	if slot < 0 {
		panic(fmt.Sprintf("cache: all %d ways pinned in set of line %d", len(set), line))
	}
	return &set[slot]
}

// Invalidate marks line Invalid, retaining its tag and clearing any pin
// (only resident lines may be pinned). It returns the state the line was
// in: Invalid if it was absent or already invalid.
func (c *Cache) Invalidate(line Line) State {
	e := c.Probe(line)
	if e == nil || e.State == Invalid {
		return Invalid
	}
	was := e.State
	e.State, e.Pinned = Invalid, false
	return was
}

// Drop removes line entirely, including a retained tag, and returns the
// state it was in (Invalid if absent).
func (c *Cache) Drop(line Line) State {
	e := c.Probe(line)
	if e == nil {
		return Invalid
	}
	was := e.State
	if c.bounded() {
		*e = Entry{}
	} else {
		c.table.Delete(uint64(line))
	}
	return was
}

// MarkSnarf records that a retained-tag entry was refreshed from data
// passing on a bus.
func (c *Cache) MarkSnarf() { c.stats.Snarfs++ }

// Len reports the number of non-Invalid lines resident.
func (c *Cache) Len() int {
	n := 0
	c.ForEach(func(e *Entry) { n++ })
	return n
}

// ForEach visits every non-Invalid entry in ascending line order. fn may
// change an entry's state and data but not insert or remove lines.
func (c *Cache) ForEach(fn func(e *Entry)) {
	refs := c.refScratch[:0]
	c.table.Each(func(_ uint64, e *Entry) {
		if e.State != Invalid {
			refs = append(refs, entryRef{e.Line, e})
		}
	})
	for _, set := range c.sets {
		for i := range set {
			if set[i].valid && set[i].State != Invalid {
				refs = append(refs, entryRef{set[i].Line, &set[i]})
			}
		}
	}
	// Insertion sort: residency is small, and sort.Slice would box the
	// slice and allocate on every call.
	for i := 1; i < len(refs); i++ {
		r := refs[i]
		j := i
		for j > 0 && refs[j-1].line > r.line {
			refs[j] = refs[j-1]
			j--
		}
		refs[j] = r
	}
	c.refScratch = refs
	for _, r := range refs {
		fn(r.e)
	}
}

func fillBlock(dst, src []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	copy(dst, src)
}
