package cache

import (
	"testing"
	"testing/quick"
)

const (
	shared   State = 2
	modified State = 3
)

func small(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{Lines: 8, Assoc: 2, BlockWords: 4})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Lines: 8, Assoc: 2, BlockWords: 0},
		{Lines: -1, Assoc: 1, BlockWords: 4},
		{Lines: 7, Assoc: 2, BlockWords: 4},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	good := []Config{
		{Lines: 0, BlockWords: 16},
		{Lines: 16, Assoc: 0, BlockWords: 4}, // fully associative
		{Lines: 16, Assoc: 4, BlockWords: 4},
	}
	for _, cfg := range good {
		if _, err := New(cfg); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}

func TestInsertLookup(t *testing.T) {
	c := small(t)
	c.Insert(5, shared, []uint64{1, 2, 3, 4})
	e, ok := c.Lookup(5)
	if !ok {
		t.Fatal("line 5 missing after insert")
	}
	if e.State != shared {
		t.Errorf("state = %d, want shared", e.State)
	}
	if e.Data[2] != 3 {
		t.Errorf("data[2] = %d, want 3", e.Data[2])
	}
	if _, ok := c.Lookup(6); ok {
		t.Error("phantom hit for line 6")
	}
}

func TestInsertShortDataZeroFills(t *testing.T) {
	c := small(t)
	c.Insert(1, shared, []uint64{9})
	e, _ := c.Lookup(1)
	if e.Data[0] != 9 || e.Data[1] != 0 || e.Data[3] != 0 {
		t.Errorf("data = %v, want [9 0 0 0]", e.Data)
	}
	c.Insert(2, shared, nil)
	e, _ = c.Lookup(2)
	for i, w := range e.Data {
		if w != 0 {
			t.Errorf("nil-data insert left data[%d] = %d", i, w)
		}
	}
}

func TestReinsertOverwritesInPlace(t *testing.T) {
	c := small(t)
	c.Insert(5, shared, []uint64{1, 1, 1, 1})
	got, was, v := c.Insert(5, modified, []uint64{2, 2, 2, 2})
	if v.Displaced {
		t.Error("re-insert displaced a victim")
	}
	if was != shared {
		t.Errorf("re-insert reported prior state %d, want %d", was, shared)
	}
	e, _ := c.Lookup(5)
	if got != e {
		t.Error("re-insert returned another entry than Lookup finds")
	}
	if e.State != modified || e.Data[0] != 2 {
		t.Errorf("re-insert did not overwrite: state=%d data=%v", e.State, e.Data)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	// Assoc 2: lines 0, 8, 16 map to the same set (8 lines / 2 ways = 4 sets).
	c := small(t)
	c.Insert(0, shared, nil)
	c.Insert(8, shared, nil)
	c.Access(0) // make 8 the LRU
	_, _, v := c.Insert(16, shared, nil)
	if !v.Displaced || v.Line != 8 {
		t.Fatalf("victim = %+v, want line 8", v)
	}
	if _, ok := c.Lookup(0); !ok {
		t.Error("recently used line 0 evicted")
	}
}

func TestInvalidSlotPreferredOverEviction(t *testing.T) {
	c := small(t)
	c.Insert(0, shared, nil)
	c.Insert(8, shared, nil)
	c.Invalidate(8)
	_, _, v := c.Insert(16, shared, nil)
	if !v.Displaced || v.Line != 8 || v.State != Invalid {
		t.Fatalf("victim = %+v, want retained-tag line 8", v)
	}
	if _, ok := c.Lookup(0); !ok {
		t.Error("valid line 0 evicted while invalid slot existed")
	}
}

func TestRetainedTagAfterInvalidate(t *testing.T) {
	c := small(t)
	c.Insert(3, modified, []uint64{7, 7, 7, 7})
	if was := c.Invalidate(3); was != modified {
		t.Fatalf("Invalidate of a resident modified line reported %d", was)
	}
	if was := c.Invalidate(3); was != Invalid {
		t.Errorf("second Invalidate reported %d, want Invalid", was)
	}
	if _, ok := c.Lookup(3); ok {
		t.Error("invalid line still hits")
	}
	e := c.Probe(3)
	if e == nil {
		t.Fatal("retained tag lost after invalidate")
	}
	if e.State != Invalid {
		t.Errorf("probe state = %d, want Invalid", e.State)
	}
}

func TestDrop(t *testing.T) {
	c := small(t)
	c.Insert(3, shared, nil)
	if was := c.Drop(3); was != shared {
		t.Errorf("Drop of a shared line reported %d", was)
	}
	if c.Probe(3) != nil {
		t.Error("Drop left a tag behind")
	}
	if was := c.Drop(99); was != Invalid { // dropping an absent line is a no-op
		t.Errorf("Drop of an absent line reported %d", was)
	}
}

func TestSelectVictim(t *testing.T) {
	c := small(t)
	if c.SelectVictim(0) != nil {
		t.Error("victim reported for empty set")
	}
	c.Insert(0, shared, nil)
	c.Insert(8, modified, nil)
	v := c.SelectVictim(16)
	if v == nil {
		t.Fatal("no victim for full set")
	}
	if v.Line != 0 {
		t.Errorf("victim = line %d, want LRU line 0", v.Line)
	}
	// A line already present needs no victim.
	if c.SelectVictim(8) != nil {
		t.Error("victim reported for resident line")
	}
	c.Invalidate(0)
	if c.SelectVictim(16) != nil {
		t.Error("victim reported while invalid slot available")
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := MustNew(Config{BlockWords: 2})
	for i := Line(0); i < 10000; i++ {
		if _, _, v := c.Insert(i, shared, nil); v.Displaced {
			t.Fatalf("unbounded cache displaced line %d", v.Line)
		}
	}
	if c.Len() != 10000 {
		t.Fatalf("Len = %d, want 10000", c.Len())
	}
	if c.SelectVictim(99999) != nil {
		t.Error("unbounded cache proposed a victim")
	}
}

func TestStatsCounting(t *testing.T) {
	c := small(t)
	c.Insert(1, shared, nil)
	c.Access(1)
	c.Access(2)
	c.Access(1)
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Inserts != 1 {
		t.Errorf("stats = %+v", s)
	}
	c.Insert(9, shared, nil)
	c.Insert(17, shared, nil) // same set as 1 and 9: evicts a valid line
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestForEachOrderedAndComplete(t *testing.T) {
	c := MustNew(Config{Lines: 16, Assoc: 4, BlockWords: 1})
	for _, l := range []Line{9, 3, 12, 1} {
		c.Insert(l, shared, nil)
	}
	c.Insert(5, shared, nil)
	c.Invalidate(5)
	var got []Line
	c.ForEach(func(e *Entry) { got = append(got, e.Line) })
	want := []Line{1, 3, 9, 12}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
}

func TestPropertyInsertThenLookup(t *testing.T) {
	// Any inserted line is immediately visible with its state and data,
	// in bounded and unbounded caches alike.
	for _, cfg := range []Config{{Lines: 64, Assoc: 4, BlockWords: 4}, {BlockWords: 4}} {
		cfg := cfg
		c := MustNew(cfg)
		f := func(raw uint32, w uint64) bool {
			line := Line(raw % 4096)
			c.Insert(line, modified, []uint64{w})
			e, ok := c.Lookup(line)
			return ok && e.State == modified && e.Data[0] == w
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
	}
}

func TestPropertyBoundedCapacityRespected(t *testing.T) {
	c := MustNew(Config{Lines: 32, Assoc: 2, BlockWords: 1})
	f := func(raws []uint16) bool {
		for _, r := range raws {
			c.Insert(Line(r), shared, nil)
		}
		return c.Len() <= 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedEntriesSkippedByVictimSelection(t *testing.T) {
	c := small(t) // 4 sets × 2 ways
	c.Insert(0, shared, nil)
	c.Insert(8, shared, nil)
	e, _ := c.Lookup(0)
	e.Pinned = true
	c.Access(8) // make 0 the LRU — but it is pinned
	if v := c.SelectVictim(16); v == nil || v.Line != 8 {
		t.Fatalf("victim = %+v, want unpinned line 8", v)
	}
	_, _, v := c.Insert(16, shared, nil)
	if !v.Displaced || v.Line != 8 {
		t.Fatalf("Insert displaced %+v, want line 8", v)
	}
	if _, ok := c.Lookup(0); !ok {
		t.Fatal("pinned line evicted")
	}
}

func TestAllWaysPinnedPanics(t *testing.T) {
	c := small(t)
	c.Insert(0, shared, nil)
	c.Insert(8, shared, nil)
	for _, l := range []Line{0, 8} {
		e, _ := c.Lookup(l)
		e.Pinned = true
	}
	defer func() {
		if recover() == nil {
			t.Error("inserting into a fully pinned set did not panic")
		}
	}()
	c.Insert(16, shared, nil)
}

func TestPinnedInvalidEntryNotReused(t *testing.T) {
	c := small(t)
	c.Insert(0, shared, nil)
	c.Invalidate(0)
	e := c.Probe(0)
	e.Pinned = true // a reserved SYNC placeholder with a retained tag
	c.Insert(8, shared, nil)
	_, _, v := c.Insert(16, shared, nil)
	if v.Displaced && v.Line == 0 {
		t.Fatal("pinned retained tag displaced")
	}
	if c.Probe(0) == nil {
		t.Fatal("pinned placeholder lost")
	}
}
