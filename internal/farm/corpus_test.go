package farm

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"multicube/internal/farm/jobspec"
)

func TestCorpusAddDedupPersist(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := CorpusEntry{Seed: 42, SingleBus: false, Kind: "coherence", Msg: "stale read", MaxStates: 4000}
	if added, err := c.Add(e); err != nil || !added {
		t.Fatalf("Add = %v, %v; want true, nil", added, err)
	}
	if added, _ := c.Add(e); added {
		t.Fatal("duplicate Add reported as new")
	}
	// Same seed, other machine: a distinct entry.
	e2 := e
	e2.SingleBus = true
	if added, _ := c.Add(e2); !added {
		t.Fatal("same seed on the other machine should be distinct")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}

	// Reload from disk.
	c2, err := OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 2 {
		t.Fatalf("reloaded Len = %d, want 2", c2.Len())
	}
	got := c2.Entries()
	if got[0].SingleBus || !got[1].SingleBus {
		t.Fatalf("entries not sorted multicube-first: %+v", got)
	}
	if got[0].Msg != "stale read" || got[0].MaxStates != 4000 {
		t.Fatalf("entry fields lost on reload: %+v", got[0])
	}
}

func TestCorpusSkipsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(CorpusEntry{Seed: 7, Kind: "k", Msg: "m", MaxStates: 100}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An Add killed mid-write leaves its temp file behind.
	dropping := filepath.Join(dir, "8-multicube.json.tmp123")
	if err := os.WriteFile(dropping, []byte(`{"seed":8`), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 {
		t.Fatalf("Len = %d after corrupt file, want 1", c2.Len())
	}
	if _, err := os.Stat(dropping); !os.IsNotExist(err) {
		t.Fatalf("temp dropping survived OpenCorpus (stat err %v)", err)
	}
}

func TestCorpusReplaySpecs(t *testing.T) {
	c, err := OpenCorpus("")
	if err != nil {
		t.Fatal(err)
	}
	c.Add(CorpusEntry{Seed: 5, SingleBus: true, Kind: "k", Msg: "m", MaxStates: 2500})
	specs := c.ReplaySpecs()
	if len(specs) != 1 {
		t.Fatalf("ReplaySpecs len = %d, want 1", len(specs))
	}
	sp, err := specs[0].Normalize()
	if err != nil {
		t.Fatalf("replay spec does not normalize: %v", err)
	}
	if sp.Kind != jobspec.KindSwarm || sp.Swarm.BaseSeed != 5 ||
		sp.Swarm.Count != 1 || sp.Swarm.Machines != "singlebus" || sp.Swarm.MaxStates != 2500 {
		t.Fatalf("replay spec fields wrong: %+v", sp.Swarm)
	}
	// Replay specs are stable cache keys: normalizing twice yields the
	// same fingerprint, so verified regressions hit the cache.
	fp1, err := sp.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	sp2, _ := specs[0].Normalize()
	fp2, _ := sp2.Fingerprint()
	if fp1 != fp2 {
		t.Fatal("replay fingerprint unstable")
	}
}

// FuzzOpenCorpus: whatever bytes a corpus file holds, OpenCorpus loads
// without a panic, and every entry it keeps lowers through ReplaySpecs to
// a spec that normalizes; any other entry is skipped at load.
func FuzzOpenCorpus(f *testing.F) {
	valid, err := json.Marshal(CorpusEntry{Seed: 7, Kind: "k", Msg: "m", MaxStates: 100})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("nope"))
	f.Add([]byte(`{"seed":-1,"single_bus":true,"max_states":1}`))
	// A budget past what a swarm job may ask for: the entry loaded, and
	// its replay job was refused by normalization.
	f.Add([]byte(`{"seed":3,"max_states":5000001}`))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, "entry.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCorpus(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range c.ReplaySpecs() {
			if _, err := sp.Normalize(); err != nil {
				t.Fatalf("kept an entry whose replay job does not normalize: %v (file %q)", err, data)
			}
		}
	})
}
