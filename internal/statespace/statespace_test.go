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
	"slices"
	"strings"
	"testing"
)

// refVisited is the straightforward in-memory reference: a set of
// fingerprints capped at max states, the contract the Store must keep
// across spilling and compaction.
type refVisited map[uint64]bool

func (r refVisited) visit(fp uint64, max int) Outcome {
	if r[fp] {
		return OutcomeSeen
	}
	if len(r) >= max {
		return OutcomeBudget
	}
	r[fp] = true
	return OutcomeNew
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
		ref := refVisited{}
		rng := rand.New(rand.NewSource(7))
		const max = 500
		for i := 0; i < 20000; i++ {
			// Small fp universe so keys repeat, from the hot set and from
			// the runs alike; spread across shards via multiplication.
			fp := uint64(rng.Intn(700)) * 0x9e3779b97f4a7c15
			got := s.Visit(fp, nil, max)
			want := ref.visit(fp, max)
			if got != want {
				t.Fatalf("budget %d: visit %d (fp %x): got %v, want %v", budget, i, fp, got, want)
			}
		}
		if s.States() != len(ref) {
			t.Fatalf("budget %d: states %d, want %d", budget, s.States(), len(ref))
		}
		if err := s.Err(); err != nil {
			t.Fatalf("budget %d: sticky error: %v", budget, err)
		}
		if budget > 0 && (s.Spills() == 0 || s.Tier.DiskLookups == 0) {
			t.Fatalf("budget %d: %d spills, %d disk lookups; workload too small", budget, s.Spills(), s.Tier.DiskLookups)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

func TestRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 0, 200)
	seen := make(map[uint64]bool)
	for len(keys) < 200 {
		fp := rng.Uint64()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		keys = append(keys, fp)
	}
	slices.Sort(keys)
	r, err := writeRun(dir, 5, 1, keys)
	if err != nil {
		t.Fatalf("writeRun: %v", err)
	}
	defer r.close()
	for _, fp := range keys {
		if ok, err := r.lookup(fp, new(TierCounts)); err != nil || !ok {
			t.Fatalf("lookup %x: ok=%v err=%v", fp, ok, err)
		}
	}
	for i := 0; i < 1000; i++ {
		fp := rng.Uint64()
		if seen[fp] {
			continue
		}
		if ok, _ := r.lookup(fp, new(TierCounts)); ok {
			t.Fatalf("lookup of absent %x reported present", fp)
		}
	}
	if got, err := r.appendKeys(nil); err != nil || !slices.Equal(got, keys) {
		t.Fatalf("appendKeys: %d keys, %v; want the %d written", len(got), err, len(keys))
	}
}

func TestOpenRunDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	r, err := writeRun(dir, 0, 1, []uint64{1, 9})
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
	var visits []uint64
	for i := 0; i < 3000; i++ {
		fp := uint64(rng.Intn(400)) * 0x9e3779b97f4a7c15
		visits = append(visits, fp)
		s.Visit(fp, nil, 1<<30)
	}
	meta := Meta{
		ScenarioHash: "scen",
		OptionsHash:  "opts",
		Depth:        40,
		Counters:     map[string]uint64{"runs": 17, "fp_inc": 99},
	}
	frontier := [][]int{{0, 2, 1}, nil, {4}}
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
	// Every visited state answers Seen.
	for _, fp := range visits {
		if got := s2.Visit(fp, nil, 1<<30); got != OutcomeSeen {
			t.Fatalf("resumed visit %x: got %v", fp, got)
		}
	}
	if s2.States() != wantStates {
		t.Fatalf("revisits grew the table: %d → %d", wantStates, s2.States())
	}
}

// TestReadFrontierRejectsCraftedFiles feeds readFrontier one file for
// each of its checks. All but the last carry a valid checksum, so their
// contents lie: the item count is read from the file and sizes an
// allocation, and a count of 2^40 in a 32-byte file used to end the
// process with an out-of-memory fault instead of ErrCorrupt. A frontier in
// the previous record layout (magic 02, a sleep-set length word after each
// prefix) must fail the magic check rather than be misread.
func TestReadFrontierRejectsCraftedFiles(t *testing.T) {
	refused := func(name, want string, file []byte) {
		path := filepath.Join(t.TempDir(), "frontier-000001"+frontierSuffix)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		sum := binary.LittleEndian.Uint64(file[len(file)-8:])
		if items, err := readFrontier(path, fmt.Sprintf("%016x", sum)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %d items, error %v; want ErrCorrupt for %q", name, len(items), err, want)
		}
	}
	for _, c := range craftedFrontiers {
		refused(c.name, c.want, binary.LittleEndian.AppendUint64(append([]byte(nil), c.body...), fnvBytes(c.body)))
	}
	valid := encodeFrontier([][]int{{1, 2}})
	refused("trailer not the body's sum", "checksum mismatch", binary.LittleEndian.AppendUint64(valid[:len(valid)-8], 1))
}

// crafted is a file whose contents lie — a whole run image, or a
// frontier body with its checksum trailer left off — and what its refusal
// says.
type crafted struct {
	name, want string
	body       []byte
}

var craftedFrontiers = []crafted{
	{"shorter than a header", "malformed length", le(frontierMagic)},
	{"the MCSSFR02 layout", "bad magic", le(frontierMagic-1, 2, 1, 5, 0, 0, 0)},
	{"count beyond the file", "truncated records", le(frontierMagic, 1<<40, 0)},
	{"prefix beyond the file", "truncated records", le(frontierMagic, 1, 2, 7)},
	{"trailing words", "trailing records", le(frontierMagic, 1, 0, 0)},
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
// parser), readFrontier refuses them with ErrCorrupt or returns prefixes
// that writeFrontier encodes to those very bytes — never a panic, never an
// allocation the file's own size does not bound.
func FuzzReadFrontier(f *testing.F) {
	path := filepath.Join(f.TempDir(), "frontier-000001"+frontierSuffix)
	for _, items := range [][][]int{nil, {{0, 2, -1}, nil, {1}}} {
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
		s.Visit(uint64(rng.Intn(300))*0x9e3779b97f4a7c15, nil, 1<<30)
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
		s.Visit(uint64(rng.Intn(250))*0x9e3779b97f4a7c15, nil, 1<<30)
	}
	if err := s.WriteCheckpoint(Meta{ScenarioHash: "a", OptionsHash: "b"}, [][]int{{1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		s.Visit(uint64(rng.Intn(500))*0x9e3779b97f4a7c15, nil, 1<<30)
	}
	want := s.States()
	if err := s.WriteCheckpoint(Meta{ScenarioHash: "a", OptionsHash: "b"}, [][]int{{2, 3}}); err != nil {
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
	if len(frontier) != 1 || len(frontier[0]) != 2 {
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
	if err := s.WriteCheckpoint(Meta{ScenarioHash: "a", OptionsHash: "b"}, [][]int{{1}}); err != nil {
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
	if live := len(s.shards[0].runs); live != 1 {
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
		s.Visit(rng.Uint64(), nil, 1<<30)
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
