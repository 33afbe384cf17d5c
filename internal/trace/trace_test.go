package trace

import (
	"bytes"
	"strings"
	"testing"

	"multicube/internal/core"
	"multicube/internal/sim"
)

func sample() *Trace {
	t := &Trace{}
	t.Append(0, Read, 100)
	t.Append(1, Write, 200)
	t.Append(0, Write, 104)
	t.Append(2, Read, 0)
	return t
}

func equal(a, b *Trace) bool {
	if len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			return false
		}
	}
	return true
}

func TestTextRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(tr, got) {
		t.Fatalf("round trip mismatch:\n%v\nvs\n%v", tr.Records, got.Records)
	}
}

func TestTextParsing(t *testing.T) {
	in := "# comment\n0 R 5\n\n1 w 9\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.Records[1].Kind != Write {
		t.Fatalf("parsed %v", tr.Records)
	}
	for _, bad := range []string{"x R 5", "0 Q 5", "0 R x", "0 R"} {
		if _, err := ReadText(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestPerProcPreservesOrder(t *testing.T) {
	tr := sample()
	per := tr.PerProc()
	if len(per[0]) != 2 || per[0][0].Addr != 100 || per[0][1].Addr != 104 {
		t.Fatalf("per-proc split wrong: %v", per[0])
	}
}

func TestCaptureDeterministic(t *testing.T) {
	a := Capture(3, 50, 4, 16, 8, 0.5, 0.3, 42)
	b := Capture(3, 50, 4, 16, 8, 0.5, 0.3, 42)
	if !equal(a, b) {
		t.Fatal("captures with same seed differ")
	}
	c := Capture(3, 50, 4, 16, 8, 0.5, 0.3, 43)
	if equal(a, c) {
		t.Fatal("captures with different seeds identical")
	}
}

func TestReplayOnMachine(t *testing.T) {
	m := core.MustNew(core.Config{N: 2, BlockWords: 8})
	tr := Capture(4, 30, 4, 8, 8, 0.6, 0.4, 7)
	if err := Replay(m, tr, 1*sim.Microsecond); err != nil {
		t.Fatal(err)
	}
	for _, err := range m.CheckInvariants() {
		t.Errorf("invariant: %v", err)
	}
	mt := m.Metrics()
	if mt.Loads+mt.Stores != uint64(tr.Len()) {
		t.Errorf("replayed %d references, trace has %d", mt.Loads+mt.Stores, tr.Len())
	}
}

func TestReplayRejectsOutOfRangeProc(t *testing.T) {
	m := core.MustNew(core.Config{N: 2, BlockWords: 8})
	tr := &Trace{}
	tr.Append(99, Read, 0)
	if err := Replay(m, tr, 0); err == nil {
		t.Fatal("out-of-range processor accepted")
	}
}

func TestReplayDeterminism(t *testing.T) {
	run := func() sim.Time {
		m := core.MustNew(core.Config{N: 2, BlockWords: 8})
		tr := Capture(4, 40, 4, 8, 8, 0.7, 0.5, 11)
		if err := Replay(m, tr, 500*sim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		return m.Kernel().Now()
	}
	if run() != run() {
		t.Fatal("replay nondeterministic")
	}
}
