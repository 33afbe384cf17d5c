package memory

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(0); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := NewStore(16); err != nil {
		t.Errorf("NewStore(16): %v", err)
	}
}

func TestZeroFilledAndValidByDefault(t *testing.T) {
	s := MustNewStore(4)
	if !s.Valid(123) {
		t.Error("untouched line not valid")
	}
	got := s.Read(123)
	if len(got) != 4 {
		t.Fatalf("Read returned %d words", len(got))
	}
	for i, w := range got {
		if w != 0 {
			t.Errorf("word %d = %d, want 0", i, w)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := MustNewStore(4)
	s.Write(7, []uint64{1, 2, 3, 4})
	got := s.Read(7)
	for i, want := range []uint64{1, 2, 3, 4} {
		if got[i] != want {
			t.Errorf("word %d = %d, want %d", i, got[i], want)
		}
	}
	// Short writes zero-extend.
	s.Write(7, []uint64{9})
	got = s.Read(7)
	if got[0] != 9 || got[1] != 0 {
		t.Errorf("short write: %v", got)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	s := MustNewStore(2)
	s.Write(1, []uint64{5, 5})
	got := s.Read(1)
	got[0] = 99
	if s.Read(1)[0] != 5 {
		t.Error("Read exposed internal storage")
	}
}

func TestValidBitLifecycle(t *testing.T) {
	s := MustNewStore(2)
	s.Invalidate(3)
	if s.Valid(3) {
		t.Fatal("line valid after Invalidate")
	}
	if s.InvalidLines() != 1 {
		t.Fatalf("InvalidLines = %d", s.InvalidLines())
	}
	s.Write(3, []uint64{1})
	if !s.Valid(3) {
		t.Fatal("Write did not set valid bit")
	}
	if s.InvalidLines() != 0 {
		t.Fatalf("InvalidLines = %d after write", s.InvalidLines())
	}
}

func TestStats(t *testing.T) {
	s := MustNewStore(2)
	s.Write(1, nil)
	s.Read(1)
	s.Read(2)
	s.Invalidate(1)
	s.CountReissue()
	got := s.Stats()
	want := Stats{Reads: 2, Writes: 1, Invalidates: 1, Reissues: 1}
	if got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	s.Peek(1) // Peek must not count
	if s.Stats().Reads != 2 {
		t.Error("Peek counted as a read")
	}
}

func TestPropertyLastWriteWins(t *testing.T) {
	s := MustNewStore(1)
	f := func(line uint16, a, b uint64) bool {
		l := Line(line)
		s.Write(l, []uint64{a})
		s.Write(l, []uint64{b})
		return s.Read(l)[0] == b && s.Valid(l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSaveLoadRewinds: a module saved, driven through an unrelated future
// and loaded must be what it was at the save — contents, valid bits and
// counters — over many rounds through one reused buffer, and twice from
// the same save.
func TestSaveLoadRewinds(t *testing.T) {
	mutate := func(s *Store, rng *rand.Rand) {
		line := Line(rng.Intn(8))
		switch rng.Intn(5) {
		case 0, 1:
			s.Write(line, []uint64{rng.Uint64(), rng.Uint64()})
		case 2:
			s.Invalidate(line)
		case 3:
			s.Read(line)
		case 4:
			s.CountReissue()
		}
	}
	dump := func(s *Store) string {
		out := fmt.Sprintf("%+v invalid=%d written=%d", s.Stats(), s.InvalidLines(), s.data.Len())
		for l := Line(0); l < 8; l++ {
			out += fmt.Sprintf(" %d:%v%v", l, s.Valid(l), s.Peek(l))
		}
		return out
	}
	s := MustNewStore(4)
	rng := rand.New(rand.NewSource(1))
	var st, empty Saved
	MustNewStore(4).Save(&empty)
	invalid := 0
	for round := 0; round < 200; round++ {
		for i := rng.Intn(5); i > 0; i-- {
			mutate(s, rng)
		}
		s.Save(&st)
		want := dump(s)
		invalid += s.InvalidLines()
		for pass := 0; pass < 2; pass++ {
			if round%2 == 0 {
				s.Load(&empty)
			}
			for i := rng.Intn(20); i > 0; i-- {
				mutate(s, rng)
			}
			s.Load(&st)
			if got := dump(s); got != want {
				t.Fatalf("round %d pass %d: after Load %s, at the save %s", round, pass, got, want)
			}
		}
	}
	// Load's scratch holds nothing between calls: blocks the saved module
	// had no use for must not pile up over a long search.
	if len(s.spare) != 0 || cap(s.spare) > 16 {
		t.Fatalf("%d blocks (cap %d) left in Load's scratch after 400 loads", len(s.spare), cap(s.spare))
	}
	if invalid == 0 || s.Stats().Reissues == 0 {
		t.Fatalf("the saves caught no invalid line, or the history counted no reissue: %+v", s.Stats())
	}
}
