package mlt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Entries: -1}); err == nil {
		t.Error("negative entries accepted")
	}
	if _, err := New(Config{Entries: 7, Assoc: 2}); err == nil {
		t.Error("non-divisible capacity accepted")
	}
	for _, cfg := range []Config{{}, {Entries: 8, Assoc: 2}, {Entries: 8}} {
		if _, err := New(cfg); err != nil {
			t.Errorf("config %+v rejected: %v", cfg, err)
		}
	}
}

func TestInsertContainsRemove(t *testing.T) {
	tb := MustNew(Config{Entries: 8, Assoc: 2})
	if tb.Contains(5) {
		t.Fatal("empty table contains 5")
	}
	if _, ov := tb.Insert(5); ov {
		t.Fatal("first insert overflowed")
	}
	if !tb.Contains(5) {
		t.Fatal("inserted line missing")
	}
	if !tb.Remove(5) {
		t.Fatal("remove of present line failed")
	}
	if tb.Contains(5) {
		t.Fatal("line present after remove")
	}
	if tb.Remove(5) {
		t.Fatal("remove of absent line succeeded")
	}
	s := tb.Stats()
	if s.Inserts != 1 || s.Removes != 2 || s.Failures != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDuplicateInsertIsRefresh(t *testing.T) {
	tb := MustNew(Config{Entries: 4, Assoc: 2})
	tb.Insert(1)
	tb.Insert(1)
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after duplicate insert, want 1", tb.Len())
	}
}

func TestOverflowEvictsLRU(t *testing.T) {
	// Assoc 2, 2 sets: lines 0,2,4 share set 0.
	tb := MustNew(Config{Entries: 4, Assoc: 2})
	tb.Insert(0)
	tb.Insert(2)
	tb.Insert(0) // refresh: 2 becomes LRU
	victim, ov := tb.Insert(4)
	if !ov || victim != 2 {
		t.Fatalf("Insert(4) = (%d,%v), want (2,true)", victim, ov)
	}
	if tb.Contains(2) {
		t.Error("victim still present")
	}
	if tb.Stats().Overflows != 1 {
		t.Errorf("overflows = %d, want 1", tb.Stats().Overflows)
	}
}

func TestUnboundedNeverOverflows(t *testing.T) {
	tb := MustNew(Config{})
	for l := Line(0); l < 5000; l++ {
		if _, ov := tb.Insert(l); ov {
			t.Fatalf("unbounded table overflowed at %d", l)
		}
	}
	if tb.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", tb.Len())
	}
}

func TestLinesSorted(t *testing.T) {
	tb := MustNew(Config{Entries: 8, Assoc: 4})
	for _, l := range []Line{9, 1, 4, 2} {
		tb.Insert(l)
	}
	got := tb.AppendLines(nil)
	want := []Line{1, 2, 4, 9}
	if len(got) != len(want) {
		t.Fatalf("Lines = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Lines = %v, want %v", got, want)
		}
	}
}

func TestEqual(t *testing.T) {
	a := MustNew(Config{Entries: 8, Assoc: 2})
	b := MustNew(Config{Entries: 8, Assoc: 2})
	if !Equal(a, b) {
		t.Fatal("empty tables unequal")
	}
	a.Insert(3)
	if Equal(a, b) {
		t.Fatal("diverged tables reported equal")
	}
	b.Insert(3)
	if !Equal(a, b) {
		t.Fatal("same-content tables unequal")
	}
}

// Property: two tables fed the same operation sequence stay identical and
// evict the same victims — the column-consistency requirement.
func TestPropertyColumnDeterminism(t *testing.T) {
	f := func(ops []uint16) bool {
		a := MustNew(Config{Entries: 8, Assoc: 2})
		b := MustNew(Config{Entries: 8, Assoc: 2})
		for _, op := range ops {
			line := Line(op % 64)
			if op%3 == 0 {
				ra := a.Remove(line)
				rb := b.Remove(line)
				if ra != rb {
					return false
				}
			} else {
				va, oa := a.Insert(line)
				vb, ob := b.Insert(line)
				if oa != ob || va != vb {
					return false
				}
			}
		}
		return Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Len never exceeds capacity and Contains agrees with Lines.
func TestPropertyCapacityAndConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		tb := MustNew(Config{Entries: 16, Assoc: 4})
		for _, op := range ops {
			tb.Insert(Line(op % 256))
		}
		if tb.Len() > 16 {
			return false
		}
		for _, l := range tb.AppendLines(nil) {
			if !tb.Contains(l) {
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
// replacement order and counters — over many rounds through one reused
// buffer, and twice from the same save.
func TestSaveLoadRewinds(t *testing.T) {
	mutate := func(tb *Table, rng *rand.Rand) {
		if l := Line(rng.Intn(10)); rng.Intn(3) > 0 {
			tb.Insert(l)
		} else {
			tb.Remove(l)
		}
	}
	dump := func(tb *Table) string {
		return fmt.Sprintf("%v %+v clock=%d slots=%+v", tb.AppendLines(nil), tb.Stats(), tb.clock, tb.sets)
	}
	for _, cfg := range []Config{{Entries: 4, Assoc: 2}, {}} {
		tb := MustNew(cfg)
		rng := rand.New(rand.NewSource(1))
		var st, empty Saved
		MustNew(cfg).Save(&empty)
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
		if tb.Stats().Failures == 0 || (cfg.Entries > 0 && tb.Stats().Overflows == 0) {
			t.Fatalf("%+v: the common history had no failed remove or no overflow: %+v", cfg, tb.Stats())
		}
	}
}
