package topology

import (
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, n int) Grid {
	t.Helper()
	g, err := NewGrid(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(1); err == nil {
		t.Error("grid of 1 accepted")
	}
	g, err := NewGrid(4)
	if err != nil {
		t.Fatalf("NewGrid(4): %v", err)
	}
	if g.N() != 4 || g.Processors() != 16 {
		t.Errorf("N=%d Processors=%d, want 4, 16", g.N(), g.Processors())
	}
}

func TestGridIDRoundTrip(t *testing.T) {
	g := mustGrid(t, 7)
	for id := NodeID(0); id < NodeID(g.Processors()); id++ {
		c := g.Coord(id)
		if !g.Valid(c) {
			t.Fatalf("Coord(%d) = %v invalid", id, c)
		}
		if got := g.ID(c); got != id {
			t.Fatalf("ID(Coord(%d)) = %d", id, got)
		}
	}
	if g.Valid(Coord{Row: 7, Col: 0}) || g.Valid(Coord{Row: 0, Col: -1}) {
		t.Error("out-of-grid coordinate reported valid")
	}
}

func TestGridHomeColumn(t *testing.T) {
	g := mustGrid(t, 8)
	f := func(raw uint64) bool {
		h := g.HomeColumn(LineID(raw))
		return h >= 0 && h < 8 && h == int(raw%8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoordString(t *testing.T) {
	if got := (Coord{Row: 3, Col: 9}).String(); got != "(3,9)" {
		t.Errorf("String() = %q", got)
	}
}
