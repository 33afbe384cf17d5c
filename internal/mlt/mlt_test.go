package mlt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Entries: -1}, 2); err == nil {
		t.Error("negative entries accepted")
	}
	if _, err := New(Config{Entries: 7, Assoc: 2}, 2); err == nil {
		t.Error("non-divisible capacity accepted")
	}
	for _, n := range []int{0, MaxColumns + 1} {
		if _, err := New(Config{}, n); err == nil {
			t.Errorf("%d columns accepted", n)
		}
	}
	for _, cfg := range []Config{{}, {Entries: 8, Assoc: 2}, {Entries: 8}} {
		if _, err := New(cfg, MaxColumns); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}

func TestInsertContainsRemove(t *testing.T) {
	tb := MustNew(Config{Entries: 8, Assoc: 2}, 2)
	if tb.Contains(0, 5) {
		t.Fatal("empty table contains 5")
	}
	if _, ov := tb.Insert(0, 5); ov {
		t.Fatal("first insert overflowed")
	}
	if !tb.Contains(0, 5) {
		t.Fatal("inserted line missing")
	}
	if !tb.Remove(0, 5) {
		t.Fatal("remove of present line failed")
	}
	if tb.Contains(0, 5) {
		t.Fatal("line present after remove")
	}
	if tb.Remove(0, 5) {
		t.Fatal("remove of absent line succeeded")
	}
	s := tb.Stats(0)
	if s.Inserts != 1 || s.Removes != 2 || s.Failures != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s := tb.Stats(1); s != (Stats{}) {
		t.Errorf("untouched column's stats = %+v", s)
	}
}

func TestDuplicateInsertIsRefresh(t *testing.T) {
	tb := MustNew(Config{Entries: 4, Assoc: 2}, 1)
	tb.Insert(0, 1)
	tb.Insert(0, 1)
	if len(tb.AppendLines(0, nil)) != 1 {
		t.Fatalf("Len = %d after duplicate insert, want 1", len(tb.AppendLines(0, nil)))
	}
}

func TestOverflowEvictsLRU(t *testing.T) {
	// Assoc 2, 2 sets: lines 0,2,4 share set 0.
	tb := MustNew(Config{Entries: 4, Assoc: 2}, 2)
	tb.Insert(1, 0)
	tb.Insert(1, 2)
	tb.Insert(1, 0) // refresh: 2 becomes LRU
	tb.Insert(0, 2)
	victim, ov := tb.Insert(1, 4)
	if !ov || victim != 2 {
		t.Fatalf("Insert(4) = (%d,%v), want (2,true)", victim, ov)
	}
	if tb.Contains(1, 2) {
		t.Error("victim still present")
	}
	if !tb.Contains(0, 2) || tb.Columns(2) != 1 {
		t.Errorf("the victim left column 0 too: columns %b", tb.Columns(2))
	}
	if tb.Stats(1).Overflows != 1 {
		t.Errorf("overflows = %d, want 1", tb.Stats(1).Overflows)
	}
}

func TestUnboundedNeverOverflows(t *testing.T) {
	tb := MustNew(Config{}, 1)
	for l := Line(0); l < 5000; l++ {
		if _, ov := tb.Insert(0, l); ov {
			t.Fatalf("unbounded table overflowed at %d", l)
		}
	}
	if len(tb.AppendLines(0, nil)) != 5000 {
		t.Fatalf("Len = %d, want 5000", len(tb.AppendLines(0, nil)))
	}
}

func TestLinesSorted(t *testing.T) {
	tb := MustNew(Config{Entries: 8, Assoc: 4}, 2)
	for _, l := range []Line{9, 1, 4, 2} {
		tb.Insert(1, l)
	}
	tb.Insert(0, 3)
	got := tb.AppendLines(1, nil)
	want := []Line{1, 2, 4, 9}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Lines = %v, want %v", got, want)
	}
}

// TestColumnsAreOneLookup: Columns names every column holding a line, bit
// c for column c, and moves with each column's inserts, removes and
// overflows, in either mode.
func TestColumnsAreOneLookup(t *testing.T) {
	for _, cfg := range []Config{{Entries: 1, Assoc: 1}, {}} {
		tb := MustNew(cfg, MaxColumns)
		for _, c := range []int{0, 5, MaxColumns - 1} {
			tb.Insert(c, 7)
		}
		if got := tb.Columns(7); got != 1|1<<5|1<<(MaxColumns-1) {
			t.Fatalf("%+v: Columns(7) = %b", cfg, got)
		}
		tb.Remove(5, 7)
		if _, ov := tb.Insert(0, 8); ov != (cfg.Entries > 0) {
			t.Fatalf("%+v: inserting 8 into column 0 overflowed %v", cfg, ov)
		}
		want := uint64(1 | 1<<(MaxColumns-1))
		if cfg.Entries > 0 {
			want = 1 << (MaxColumns - 1)
		}
		if got := tb.Columns(7); got != want || tb.Columns(8) != 1 || tb.Columns(9) != 0 {
			t.Fatalf("%+v: Columns 7, 8, 9 = %b, %b, %b; want %b, 1, 0", cfg, got, tb.Columns(8), tb.Columns(9), want)
		}
	}
}

// Property: the columns of one table fed the same operation sequence hold
// the same lines and evict the same victims — what kept the paper's copies
// of a column identical — and Columns mirrors every column's sets.
func TestPropertyColumnDeterminism(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := MustNew(Config{Entries: 8, Assoc: 2}, 2)
		for _, op := range ops {
			line := Line(op % 64)
			if op%3 == 0 {
				if tb.Remove(0, line) != tb.Remove(1, line) {
					return false
				}
			} else {
				va, oa := tb.Insert(0, line)
				vb, ob := tb.Insert(1, line)
				if oa != ob || va != vb {
					return false
				}
			}
			if m := tb.Columns(line); m != 0 && m != 3 {
				return false
			}
		}
		if fmt.Sprint(tb.AppendLines(0, nil)) != fmt.Sprint(tb.AppendLines(1, nil)) {
			return false
		}
		for _, col := range tb.cols {
			for _, set := range col.sets {
				for _, e := range set {
					if e.valid && tb.Columns(e.line) != 3 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Len never exceeds capacity and Contains agrees with Lines.
func TestPropertyCapacityAndConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := MustNew(Config{Entries: 16, Assoc: 4}, 1)
		for _, op := range ops {
			tb.Insert(0, Line(op%256))
		}
		if len(tb.AppendLines(0, nil)) > 16 {
			return false
		}
		for _, l := range tb.AppendLines(0, nil) {
			if !tb.Contains(0, l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSaveLoadRewinds: a table of either shape, saved, driven through an
// unrelated future and loaded must be what it was at the save — entries,
// replacement order, counters and generation — over many rounds through
// one reused buffer, and twice from the same save.
func TestSaveLoadRewinds(t *testing.T) {
	mutate := func(tb *Table, rng *rand.Rand) {
		if l, c := Line(rng.Intn(10)), rng.Intn(2); rng.Intn(3) > 0 {
			tb.Insert(c, l)
		} else {
			tb.Remove(c, l)
		}
	}
	dump := func(tb *Table) string {
		return fmt.Sprintf("%v %v %+v gen=%d", tb.AppendLines(0, nil), tb.AppendLines(1, nil), tb.cols, tb.gen)
	}
	for _, cfg := range []Config{{Entries: 4, Assoc: 2}, {}} {
		tb := MustNew(cfg, 2)
		rng := rand.New(rand.NewSource(1))
		var st, empty Saved
		MustNew(cfg, 2).Save(&empty)
		for round := 0; round < 200; round++ {
			for i := rng.Intn(5); i > 0; i-- {
				mutate(tb, rng)
			}
			tb.Save(&st)
			want := dump(tb)
			for pass := 0; pass < 2; pass++ {
				if round%2 == 0 {
					tb.Load(&empty)
				}
				for i := rng.Intn(20); i > 0; i-- {
					mutate(tb, rng)
				}
				tb.Load(&st)
				if got := dump(tb); got != want {
					t.Fatalf("%+v round %d pass %d: after Load %s, at the save %s", cfg, round, pass, got, want)
				}
			}
		}
		if s := tb.Stats(1); s.Failures == 0 || (cfg.Entries > 0 && s.Overflows == 0) {
			t.Fatalf("%+v: the common history had no failed remove or no overflow: %+v", cfg, s)
		}
	}
}
