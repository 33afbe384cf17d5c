package trace

import (
	"bytes"
	"strings"
	"testing"

	"multicube/internal/core"
	"multicube/internal/sim"
	"multicube/internal/workload"
)

// generated is the trace multicube-sim -trace-out writes for cfg on a
// machine of procs processors.
func generated(cfg workload.GenConfig, procs, blockWords int) *Trace {
	t := &Trace{}
	workload.References(cfg, procs, blockWords, t.AppendRef)
	return t
}

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
	cfg := workload.GenConfig{Seed: 42, Requests: 50, PrivateLines: 4, SharedLines: 16, PShared: 0.5, PWrite: 0.3}
	a := generated(cfg, 3, 8)
	b := generated(cfg, 3, 8)
	if a.Len() != 150 || !equal(a, b) {
		t.Fatal("captures with same seed differ")
	}
	cfg.Seed = 43
	if equal(a, generated(cfg, 3, 8)) {
		t.Fatal("captures with different seeds identical")
	}
}

// TestTraceReplaysWhatTheGeneratorRan: the trace of a GenConfig, replayed
// on a second machine of the same shape, gives every node the reads and
// writes the generator gave it on the first — the think-time and
// store-value draws sit between the address draws, so a capture that
// skips them, or assumes the default private region, writes another
// workload.
func TestTraceReplaysWhatTheGeneratorRan(t *testing.T) {
	for _, cfg := range []workload.GenConfig{
		{Seed: 1, Requests: 60, Exponential: true, PShared: 0.5, PWrite: 0.3},
		{Seed: 1, Requests: 60, PShared: 0.5, PWrite: 0.3},
		{Seed: 7, Requests: 40, Exponential: true, PrivateLines: 5, SharedLines: 12, PShared: 0.2, PWrite: 0.6},
	} {
		ran := core.MustNew(core.Config{N: 2, BlockWords: 8})
		workload.Run(ran, cfg)
		replayed := core.MustNew(core.Config{N: 2, BlockWords: 8})
		if err := Replay(replayed, generated(cfg, ran.Processors(), ran.BlockWords()), 1*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < ran.Processors(); id++ {
			want, got := ran.Processor(id).Node().Stats(), replayed.Processor(id).Node().Stats()
			if got.Reads != want.Reads || got.Writes != want.Writes {
				t.Errorf("%+v: processor %d replayed %d reads and %d writes, the generator issued %d and %d",
					cfg, id, got.Reads, got.Writes, want.Reads, want.Writes)
			}
		}
	}
}

func TestReplayOnMachine(t *testing.T) {
	m := core.MustNew(core.Config{N: 2, BlockWords: 8})
	tr := generated(workload.GenConfig{Seed: 7, Requests: 30, PrivateLines: 4, SharedLines: 8, PShared: 0.6, PWrite: 0.4}, 4, 8)
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
		tr := generated(workload.GenConfig{Seed: 11, Requests: 40, PrivateLines: 4, SharedLines: 8, PShared: 0.7, PWrite: 0.5}, 4, 8)
		if err := Replay(m, tr, 500*sim.Nanosecond); err != nil {
			t.Fatal(err)
		}
		return m.Kernel().Now()
	}
	if run() != run() {
		t.Fatal("replay nondeterministic")
	}
}
