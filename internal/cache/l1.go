package cache

// ProcessorCache is the first-level (SRAM) cache: a small, fast cache in
// front of the snooping cache, maintained write-through so that "the
// processor cache is always a strict subset of the snooping cache"
// (Section 2, citing Baer & Wang). It holds no coherence state of its own:
// a resident line is readable, and every write is propagated to the
// snooping cache by the controller. The controller invalidates the
// processor cache whenever the corresponding snooping-cache line is
// invalidated or displaced, preserving the subset property.
type ProcessorCache struct {
	store *Cache
}

// present is the only non-Invalid state an L1 line uses.
const present State = 1

// NewProcessorCache returns an L1 with the given capacity (lines must be
// nonzero: the processor cache is small by design) and associativity.
func NewProcessorCache(lines, assoc, blockWords int) (*ProcessorCache, error) {
	s, err := New(Config{Lines: lines, Assoc: assoc, BlockWords: blockWords})
	if err != nil {
		return nil, err
	}
	return &ProcessorCache{store: s}, nil
}

// Read returns the word at offset within line and true on a hit.
func (p *ProcessorCache) Read(line Line, offset int) (uint64, bool) {
	e, ok := p.store.Access(line)
	if !ok {
		return 0, false
	}
	return e.Data[offset], true
}

// Contains reports residency without touching hit/miss counters.
func (p *ProcessorCache) Contains(line Line) bool {
	_, ok := p.store.Lookup(line)
	return ok
}

// Fill installs a line after the snooping cache satisfied a miss. The
// returned victim is informational; a clean write-through victim needs no
// action.
func (p *ProcessorCache) Fill(line Line, data []uint64) Victim {
	_, _, v := p.store.Insert(line, present, data)
	return v
}

// WriteThrough updates the word in place when the line is resident. The
// write always also goes to the snooping cache (the controller handles
// that); this call only keeps the L1 copy coherent with it.
func (p *ProcessorCache) WriteThrough(line Line, offset int, value uint64) {
	if e, ok := p.store.Lookup(line); ok {
		e.Data[offset] = value
		p.store.Touch(line)
	}
}

// Invalidate removes line, typically because the snooping cache lost it.
func (p *ProcessorCache) Invalidate(line Line) bool {
	return p.store.Invalidate(line) != Invalid
}

// Lines returns the resident lines in ascending order; tests use this to
// check the subset property against the snooping cache.
func (p *ProcessorCache) Lines() []Line {
	var out []Line
	p.store.ForEach(func(e *Entry) { out = append(out, e.Line) })
	return out
}

// Stats exposes the underlying hit/miss counters.
func (p *ProcessorCache) Stats() Stats { return p.store.Stats() }
