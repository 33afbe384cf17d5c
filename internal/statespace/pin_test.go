package statespace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// liveRuns maps the base name of every run the store holds open to it.
func liveRuns(s *Store) map[string]*run {
	out := make(map[string]*run)
	for i := range s.shards {
		for _, r := range s.shards[i].runs {
			out[filepath.Base(r.path)] = r
		}
	}
	return out
}

// namedRuns returns the run files the durable manifest under dir names.
func namedRuns(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ms := range m.Shards {
		for _, mr := range ms.Runs {
			names = append(names, mr.File)
		}
	}
	return names
}

// unsynced counts the open runs no checkpoint has synced.
func unsynced(s *Store) int {
	n := 0
	for _, r := range liveRuns(s) {
		if !r.synced {
			n++
		}
	}
	return n
}

// synced returns the base names of the open runs a checkpoint has synced.
func synced(s *Store) map[string]bool {
	out := make(map[string]bool)
	for name, r := range liveRuns(s) {
		out[name] = r.synced
	}
	return out
}

// TestCheckpointPinsOnlySyncedRuns holds the rule the crash tests cannot
// see — a SIGKILL keeps the page cache, so they pass whether or not a run
// reached the disk: a spill leaves its run unsynced, a checkpoint syncs
// every run its manifest names before the manifest exists, a run adopted
// by Resume counts as synced, and a store with no checkpoint directory
// syncs nothing, compactions included.
func TestCheckpointPinsOnlySyncedRuns(t *testing.T) {
	t.Run("no checkpoint directory", func(t *testing.T) {
		s, err := Open(Config{Dir: t.TempDir(), MemBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		// Every Visit spills, and small fingerprints share shard 0, so
		// its run stack is compacted twice.
		for fp := uint64(1); fp <= 2*maxRunsPerShard+2; fp++ {
			s.Visit(fp, nil, 1<<30)
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if runs := len(s.shards[0].runs); s.Spills() <= maxRunsPerShard || runs > maxRunsPerShard {
			t.Fatalf("%d spills left %d runs: no compaction", s.Spills(), runs)
		}
		if s.Syncs() != 0 || unsynced(s) != len(liveRuns(s)) {
			t.Fatalf("%d syncs, %d of %d runs unsynced; want none synced", s.Syncs(), unsynced(s), len(liveRuns(s)))
		}
	})

	dir := t.TempDir()
	cfg := Config{Dir: dir, MemBudget: 1 << 10, CheckpointDir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	visit := func(n int) {
		for i := 0; i < n; i++ {
			s.Visit(uint64(rng.Intn(600))*0x9e3779b97f4a7c15, nil, 1<<30)
		}
	}
	// checkpoint writes one and requires that it spilled exactly the
	// shards holding hot entries, that every run its manifest names is
	// synced, and that it synced each of them no earlier checkpoint had,
	// once.
	checkpoint := func() {
		t.Helper()
		if unsynced(s) == 0 {
			t.Fatal("no unsynced run before the checkpoint; the workload did not spill")
		}
		dirty := 0
		for i := range s.shards {
			if len(s.shards[i].hot) > 0 {
				dirty++
			}
		}
		before, spills, wasSynced := s.Syncs(), s.Spills(), synced(s)
		if err := s.WriteCheckpoint(Meta{ScenarioHash: "a", OptionsHash: "b"}, nil); err != nil {
			t.Fatal(err)
		}
		if got := s.Spills() - spills; got != dirty {
			t.Fatalf("checkpoint spilled %d shards, want the %d with hot entries", got, dirty)
		}
		live, fresh := liveRuns(s), 0
		for _, name := range namedRuns(t, dir) {
			if r := live[name]; r == nil || !r.synced {
				t.Fatalf("the manifest names %s, which is not a synced open run", name)
			}
			if !wasSynced[name] {
				fresh++
			}
		}
		if got := s.Syncs() - before; got != fresh {
			t.Fatalf("checkpoint synced %d runs, want the %d no earlier one had", got, fresh)
		}
	}
	visit(1500)
	if s.Syncs() != 0 {
		t.Fatalf("%d syncs before any checkpoint", s.Syncs())
	}
	checkpoint()
	visit(1500)
	checkpoint()
	if s.Syncs() > s.Spills() {
		t.Fatalf("%d syncs for %d spills", s.Syncs(), s.Spills())
	}
	s.Close()

	s2, _, _, err := Resume(cfg, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := unsynced(s2); n != 0 {
		t.Fatalf("%d runs adopted by Resume count as unsynced", n)
	}
	spills := s2.Spills()
	if err := s2.WriteCheckpoint(Meta{ScenarioHash: "a", OptionsHash: "b"}, nil); err != nil {
		t.Fatal(err)
	}
	if s2.Syncs() != 0 {
		t.Fatalf("a checkpoint of adopted runs synced %d of them again", s2.Syncs())
	}
	if got := s2.Spills() - spills; got != 0 {
		t.Fatalf("an idle checkpoint of a resumed store spilled %d shards", got)
	}
}

// TestFailedSyncLeavesNoManifest is ROADMAP item 4(b)'s failing disk at a
// checkpoint: when one pinned run's fsync fails, WriteCheckpoint returns
// that error before it writes the frontier or the manifest, and the
// previous checkpoint stays the one Resume adopts.
func TestFailedSyncLeavesNoManifest(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemBudget: 1, CheckpointDir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every Visit spills, into shard 0, so no checkpoint has a hot entry
	// to flush and no compaction reads the run closed below.
	for fp := uint64(1); fp <= 3; fp++ {
		s.Visit(fp, nil, 1<<30)
	}
	meta := Meta{ScenarioHash: "a", OptionsHash: "b", Depth: 1}
	frontier := [][]int{{1}}
	if err := s.WriteCheckpoint(meta, frontier); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	s.Visit(4, nil, 1<<30)
	runs := s.shards[0].runs
	victim := runs[len(runs)-1]
	if len(runs) != 4 || victim.synced {
		t.Fatalf("%d runs, newest synced=%v; want 4 and an unsynced one", len(runs), victim.synced)
	}
	victim.f.Close() // its Sync now fails; r.f stays set, as on a failing disk

	err = s.WriteCheckpoint(Meta{ScenarioHash: "a", OptionsHash: "b", Depth: 2}, [][]int{{2}})
	if !errors.Is(err, os.ErrClosed) || !strings.Contains(err.Error(), "sync "+filepath.Base(victim.path)) {
		t.Fatalf("WriteCheckpoint over a failing run: %v, want its sync error", err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, manifestName)); !bytes.Equal(got, first) {
		t.Fatal("a failed sync replaced the manifest")
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*"+frontierSuffix+"*"))
	if len(left) != 1 {
		t.Fatalf("frontier files after the failed checkpoint: %v, want only the first", left)
	}
	s.Close()

	s2, gotMeta, gotFrontier, err := Resume(cfg, "a", "b")
	if err != nil {
		t.Fatalf("Resume after a failed sync: %v", err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(gotMeta, meta) || !reflect.DeepEqual(gotFrontier, frontier) || s2.States() != 3 {
		t.Fatalf("Resume adopted depth %d, frontier %v, %d states; want the first checkpoint's %d, %v, 3",
			gotMeta.Depth, gotFrontier, s2.States(), meta.Depth, frontier)
	}
}
