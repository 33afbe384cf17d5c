package statespace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// refVisited is the straightforward in-memory reference: fp → smallest
// sleep set, with the exact subset/intersection contract the Store must
// preserve across spilling and compaction.
type refVisited struct {
	m     map[uint64][]uint64
	count int
}

func (r *refVisited) visit(fp uint64, sleep []uint64, max int) Outcome {
	if stored, ok := r.m[fp]; ok {
		if subsetOf(stored, sleep) {
			return OutcomeSeen
		}
		r.m[fp] = intersectSorted(stored, sleep)
		return OutcomeAgain
	}
	if r.count >= max {
		return OutcomeBudget
	}
	r.count++
	r.m[fp] = sleep
	return OutcomeNew
}

func randSleep(rng *rand.Rand) []uint64 {
	n := rng.Intn(6)
	if n == 0 {
		return nil
	}
	set := make(map[uint64]bool, n)
	for len(set) < n {
		set[uint64(rng.Intn(40))*0x9e37+1] = true
	}
	out := make([]uint64, 0, n)
	for f := range set {
		out = append(out, f)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// TestVisitMatchesReference drives the store and the reference with the
// same random workload under a tiny memory budget, forcing spills and
// compactions, and requires identical outcomes throughout.
func TestVisitMatchesReference(t *testing.T) {
	for _, budget := range []int64{0, 1 << 10, 1 << 14} {
		dir := t.TempDir()
		cfg := Config{MemBudget: budget}
		if budget > 0 {
			cfg.Dir = dir
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("budget %d: Open: %v", budget, err)
		}
		ref := &refVisited{m: make(map[uint64][]uint64)}
		rng := rand.New(rand.NewSource(7))
		const max = 500
		for i := 0; i < 20000; i++ {
			// Small fp universe so keys repeat and intersections happen;
			// spread across shards via multiplication.
			fp := uint64(rng.Intn(700)) * 0x9e3779b97f4a7c15
			sleep := randSleep(rng)
			got := s.Visit(fp, sleep, max)
			want := ref.visit(fp, sleep, max)
			if got != want {
				t.Fatalf("budget %d: visit %d (fp %x): got %v, want %v", budget, i, fp, got, want)
			}
		}
		if s.States() != ref.count {
			t.Fatalf("budget %d: states %d, want %d", budget, s.States(), ref.count)
		}
		if err := s.Err(); err != nil {
			t.Fatalf("budget %d: sticky error: %v", budget, err)
		}
		if budget > 0 && s.Spills() == 0 {
			t.Fatalf("budget %d produced no spills; workload too small", budget)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

func TestRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	ents := make([]runEnt, 0, 200)
	seen := make(map[uint64]bool)
	for len(ents) < 200 {
		fp := rng.Uint64()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		ents = append(ents, runEnt{fp: fp, sleep: randSleep(rng)})
	}
	sort.Slice(ents, func(a, b int) bool { return ents[a].fp < ents[b].fp })
	r, err := writeRun(dir, 5, 1, ents)
	if err != nil {
		t.Fatalf("writeRun: %v", err)
	}
	defer r.close()
	for _, e := range ents {
		got, ok, err := r.lookup(e.fp, new(TierCounts))
		if err != nil || !ok {
			t.Fatalf("lookup %x: ok=%v err=%v", e.fp, ok, err)
		}
		if !reflect.DeepEqual(got, e.sleep) && !(len(got) == 0 && len(e.sleep) == 0) {
			t.Fatalf("lookup %x: got %v, want %v", e.fp, got, e.sleep)
		}
	}
	for i := 0; i < 1000; i++ {
		fp := rng.Uint64()
		if seen[fp] {
			continue
		}
		if _, ok, _ := r.lookup(fp, new(TierCounts)); ok {
			t.Fatalf("lookup of absent %x reported present", fp)
		}
	}
	var walked int
	if err := r.forEach(func(fp uint64, sleep []uint64) { walked++ }); err != nil {
		t.Fatalf("forEach: %v", err)
	}
	if walked != len(ents) {
		t.Fatalf("forEach walked %d, want %d", walked, len(ents))
	}
}

func TestOpenRunDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	ents := []runEnt{{fp: 1, sleep: []uint64{2, 3}}, {fp: 9, sleep: nil}}
	r, err := writeRun(dir, 0, 1, ents)
	if err != nil {
		t.Fatalf("writeRun: %v", err)
	}
	path := r.path
	r.close()

	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func() []byte{
		"truncated": func() []byte { return orig[:len(orig)-9] },
		"bitflip": func() []byte {
			b := append([]byte(nil), orig...)
			b[len(b)/2] ^= 0x40
			return b
		},
		"badmagic": func() []byte {
			b := append([]byte(nil), orig...)
			b[0] ^= 0xff
			return b
		},
	}
	for name, mutate := range cases {
		if err := os.WriteFile(path, mutate(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openRun(path, 0); err == nil {
			t.Fatalf("%s: openRun accepted a damaged run", name)
		} else if !strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("%s: error %v is not a corruption error", name, err)
		}
	}
	// Wrong shard is also refused.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openRun(path, 1); err == nil {
		t.Fatal("openRun accepted a run for the wrong shard")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemBudget: 1 << 10, CheckpointDir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	type rec struct {
		fp    uint64
		sleep []uint64
	}
	var visits []rec
	for i := 0; i < 3000; i++ {
		fp := uint64(rng.Intn(400)) * 0x9e3779b97f4a7c15
		sl := randSleep(rng)
		visits = append(visits, rec{fp, sl})
		s.Visit(fp, sl, 1<<30)
	}
	meta := Meta{
		ScenarioHash: "scen",
		OptionsHash:  "opts",
		Depth:        40,
		Counters:     map[string]uint64{"runs": 17, "fp_inc": 99},
	}
	frontier := []FrontierItem{
		{Prefix: []int{0, 2, 1}, Sleep: []uint64{5, 9}},
		{Prefix: nil, Sleep: nil},
		{Prefix: []int{4}, Sleep: []uint64{1}},
	}
	if err := s.WriteCheckpoint(meta, frontier); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	wantStates := s.States()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, gotMeta, gotFrontier, err := Resume(cfg, "scen", "opts")
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer s2.Close()
	if !reflect.DeepEqual(gotMeta, meta) {
		t.Fatalf("meta: got %+v, want %+v", gotMeta, meta)
	}
	if !reflect.DeepEqual(gotFrontier, frontier) {
		t.Fatalf("frontier: got %+v, want %+v", gotFrontier, frontier)
	}
	if s2.States() != wantStates {
		t.Fatalf("states: got %d, want %d", s2.States(), wantStates)
	}
	// Every visited state must answer Seen when revisited with a superset
	// (its stored set is ⊆ what it was visited with).
	for _, v := range visits {
		if got := s2.Visit(v.fp, v.sleep, 1<<30); got != OutcomeSeen && got != OutcomeAgain {
			t.Fatalf("resumed visit %x: got %v", v.fp, got)
		}
	}
	if s2.States() != wantStates {
		t.Fatalf("revisits grew the table: %d → %d", wantStates, s2.States())
	}
}

// TestReadFrontierRejectsCraftedFiles feeds readFrontier well-checksummed
// files whose contents lie. The item count is read from the file and sizes
// an allocation: a count of 2^40 in a 32-byte file used to end the process
// with an out-of-memory fault instead of ErrCorrupt. A frontier in the
// previous record layout (magic 01, three words per item) must fail the
// magic check rather than be misread.
func TestReadFrontierRejectsCraftedFiles(t *testing.T) {
	for _, c := range craftedFrontiers {
		sum := fnvBytes(c.body)
		buf := binary.LittleEndian.AppendUint64(append([]byte(nil), c.body...), sum)
		path := filepath.Join(t.TempDir(), "frontier-000001"+frontierSuffix)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if items, err := readFrontier(path, fmt.Sprintf("%016x", sum)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %d items, error %v; want ErrCorrupt", c.name, len(items), err)
		}
	}
}

// craftedFrontiers are frontier bodies, the checksum trailer left off,
// whose contents lie.
var craftedFrontiers = []struct {
	name string
	body []byte
}{
	{"count beyond the file", le(frontierMagic, 1<<40, 0)},
	{"count one too many", le(frontierMagic, 2, 0, 0, 0)},
	{"previous layout", le(frontierMagic-1, 1, 0, 0, 0)},
}

func le(words ...uint64) []byte {
	var buf []byte
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// FuzzReadFrontier: whatever records a frontier file holds under a valid
// checksum (the harness appends one, so that mutations reach the record
// parser), readFrontier refuses them with ErrCorrupt or returns items that
// writeFrontier encodes to those very bytes — never a panic, never an
// allocation the file's own size does not bound.
func FuzzReadFrontier(f *testing.F) {
	path := filepath.Join(f.TempDir(), "frontier-000001"+frontierSuffix)
	for _, items := range [][]FrontierItem{nil, {{Prefix: []int{0, 2, -1}}, {Sleep: []uint64{7, 1 << 63}}, {Prefix: []int{1}, Sleep: []uint64{3}}}} {
		valid := encodeFrontier(items)
		f.Add(valid[:len(valid)-8])
	}
	for _, c := range craftedFrontiers {
		f.Add(c.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sum := fnvBytes(body)
		file := binary.LittleEndian.AppendUint64(append([]byte(nil), body...), sum)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		items, err := readFrontier(path, fmt.Sprintf("%016x", sum))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(8*len(file)+1<<16) {
			t.Fatalf("reading a %d-byte frontier allocated %d bytes", len(file), grew)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("readFrontier: %v, want ErrCorrupt", err)
			}
			return
		}
		if back := encodeFrontier(items); !bytes.Equal(back, file) {
			t.Fatalf("%d items read from %d bytes re-encode to %d bytes", len(items), len(file), len(back))
		}
	})
}

func TestResumeRefusesMismatchAndCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemBudget: 1 << 10, CheckpointDir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		s.Visit(uint64(rng.Intn(300))*0x9e3779b97f4a7c15, randSleep(rng), 1<<30)
	}
	if err := s.WriteCheckpoint(Meta{ScenarioHash: "a", OptionsHash: "b"}, nil); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	s.Close()

	if _, _, _, err := Resume(cfg, "a", "OTHER"); err == nil {
		t.Fatal("Resume accepted mismatched options hash")
	} else if !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("mismatch error: %v", err)
	}
	if _, _, _, err := Resume(Config{Dir: t.TempDir(), CheckpointDir: t.TempDir()}, "a", "b"); err != ErrNoCheckpoint {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}

	// Truncate one run file: Resume must detect it.
	runs, err := filepath.Glob(filepath.Join(dir, "*"+runSuffix))
	if err != nil || len(runs) == 0 {
		t.Fatalf("no runs on disk (err %v)", err)
	}
	data, err := os.ReadFile(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(runs[0], data[:len(data)-16], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Resume(cfg, "a", "b"); err == nil {
		t.Fatal("Resume accepted a truncated run")
	}
	// Clear wipes the damage and a fresh Open succeeds.
	if err := Clear(cfg); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	s3, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open after Clear: %v", err)
	}
	s3.Close()
}

func TestCheckpointSupersedesPrevious(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemBudget: 1 << 10, CheckpointDir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1500; i++ {
		s.Visit(uint64(rng.Intn(250))*0x9e3779b97f4a7c15, randSleep(rng), 1<<30)
	}
	if err := s.WriteCheckpoint(Meta{ScenarioHash: "a", OptionsHash: "b"}, []FrontierItem{{Prefix: []int{1}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		s.Visit(uint64(rng.Intn(500))*0x9e3779b97f4a7c15, randSleep(rng), 1<<30)
	}
	want := s.States()
	if err := s.WriteCheckpoint(Meta{ScenarioHash: "a", OptionsHash: "b"}, []FrontierItem{{Prefix: []int{2, 3}}}); err != nil {
		t.Fatal(err)
	}
	// Exactly one frontier file survives GC.
	fr, err := filepath.Glob(filepath.Join(dir, "*"+frontierSuffix))
	if err != nil || len(fr) != 1 {
		t.Fatalf("frontier files after second checkpoint: %v (err %v)", fr, err)
	}
	s.Close()
	s2, _, frontier, err := Resume(cfg, "a", "b")
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer s2.Close()
	if s2.States() != want {
		t.Fatalf("states: got %d, want %d", s2.States(), want)
	}
	if len(frontier) != 1 || len(frontier[0].Prefix) != 2 {
		t.Fatalf("frontier: got %+v, want the second checkpoint's", frontier)
	}
}

// TestCompactionPreservesCheckpointedRuns pins the crash-window rule: a
// compaction between two checkpoints must not unlink run files the
// durable manifest still references, or a kill in that window leaves an
// unresumable checkpoint. The retired files survive until the next
// checkpoint's gc sweeps them.
func TestCompactionPreservesCheckpointedRuns(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemBudget: 1, CheckpointDir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny budget: every Visit spills. Small fingerprints all land in
	// shard 0, so runs stack up in one shard.
	for fp := uint64(1); fp <= 3; fp++ {
		s.Visit(fp, nil, 1<<30)
	}
	if err := s.WriteCheckpoint(Meta{ScenarioHash: "a", OptionsHash: "b"}, []FrontierItem{{Prefix: []int{1}}}); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	var pinnedRuns []string
	for name := range s.pinned {
		if strings.HasSuffix(name, runSuffix) {
			pinnedRuns = append(pinnedRuns, name)
		}
	}
	if len(pinnedRuns) == 0 {
		t.Fatal("checkpoint pinned no runs; workload produced none")
	}
	// Push shard 0 past maxRunsPerShard to force exactly one compaction.
	for fp := uint64(4); fp <= uint64(maxRunsPerShard)+1; fp++ {
		s.Visit(fp, nil, 1<<30)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("sticky error: %v", err)
	}
	sh := &s.shards[0]
	sh.mu.Lock()
	live := len(sh.runs)
	sh.mu.Unlock()
	if live != 1 {
		t.Fatalf("shard 0 holds %d runs; compaction did not trigger", live)
	}
	for _, name := range pinnedRuns {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("compaction unlinked manifest-referenced run %s: %v", name, err)
		}
	}
	wantStates := 3 // the checkpoint's count, not the post-checkpoint one

	// Crash now (no second checkpoint): the durable manifest must resume.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, _, frontier, err := Resume(cfg, "a", "b")
	if err != nil {
		t.Fatalf("Resume after compaction-between-checkpoints: %v", err)
	}
	if s2.States() != wantStates || len(frontier) != 1 {
		t.Fatalf("resumed states=%d frontier=%d, want %d and 1", s2.States(), len(frontier), wantStates)
	}
	for fp := uint64(1); fp <= 3; fp++ {
		if got := s2.Visit(fp, nil, 1<<30); got != OutcomeSeen {
			t.Fatalf("resumed visit %d: got %v, want OutcomeSeen", fp, got)
		}
	}
	// The resumed store adopted only the manifest's runs; the compacted
	// merge product from the crashed process is stale. A fresh checkpoint
	// re-pins the adopted runs and gc sweeps the stale one.
	pinnedSet := make(map[string]bool)
	for _, name := range pinnedRuns {
		pinnedSet[name] = true
	}
	all, _ := filepath.Glob(filepath.Join(dir, "*"+runSuffix))
	var stale []string
	for _, p := range all {
		if !pinnedSet[filepath.Base(p)] {
			stale = append(stale, p)
		}
	}
	if len(stale) == 0 {
		t.Fatal("no stale merge product on disk; compaction scenario did not occur")
	}
	if err := s2.WriteCheckpoint(Meta{ScenarioHash: "a", OptionsHash: "b"}, nil); err != nil {
		t.Fatalf("second WriteCheckpoint: %v", err)
	}
	for _, p := range stale {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("gc left stale run %s (err %v)", p, err)
		}
	}
	for _, name := range pinnedRuns {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("gc swept a still-referenced run %s: %v", name, err)
		}
	}
	s2.Close()
}

func TestResetClearsDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, MemBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		s.Visit(rng.Uint64(), randSleep(rng), 1<<30)
	}
	if s.Spills() == 0 {
		t.Fatal("workload produced no spills")
	}
	if err := s.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if s.States() != 0 || s.MemBytes() != 0 || s.DiskBytes() != 0 {
		t.Fatalf("Reset left counters: states=%d mem=%d disk=%d", s.States(), s.MemBytes(), s.DiskBytes())
	}
	runs, _ := filepath.Glob(filepath.Join(dir, "*"+runSuffix))
	if len(runs) != 0 {
		t.Fatalf("Reset left run files: %v", runs)
	}
	if got := s.Visit(42, nil, 10); got != OutcomeNew {
		t.Fatalf("post-Reset visit: got %v, want OutcomeNew", got)
	}
}
