package statespace

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// craftRun returns a checksummed run image for shard 0 holding the given
// header counts and then the given words.
func craftRun(count, bloomWords uint64, body ...uint64) []byte {
	buf := le(append([]uint64{runMagic, runVersion, count, bloomWords}, body...)...)
	return binary.LittleEndian.AppendUint64(buf, fnvBytes(buf))
}

// craftedRuns holds one run image for each check openRun makes of a run
// file, and one for each clause of the header-count check. The 40-byte
// images whose count or bloom length passes the file's words would make
// the size 8·(4 + bloom + count + 1) wrap back onto 40, so the size and
// trailer checks of an openRun that adds before it bounds both pass: such
// an image would index 2⁶¹ keys or size an allocation of 2⁶¹ words. A run
// with keys and no bloom words would answer absent for every key.
var craftedRuns = []crafted{
	{"short header", "short header", le(runMagic, runVersion, 0, 1)},
	{"version 1", "bad magic/version", le(runMagic, 1, 0, 1, 0, 0)},
	{"another shard", "shard 1, want 0", le(runMagic, runVersion|1<<32, 0, 1, 0, 0)},
	{"count beyond the file", "header counts exceed", craftRun(1<<61-1, 1)},
	{"no bloom words", "header counts exceed", craftRun(1, 0, 5)},
	{"bloom beyond the file", "header counts exceed", craftRun(0, 1<<61)},
	{"a word too few", "size 48, want 56", craftRun(1, 1, 0)},
	{"trailer not the sum", "checksum mismatch", le(runMagic, runVersion, 0, 1, 0, 0)},
	{"keys out of order", "malformed index entry 1", craftRun(2, 1, 0, 9, 1)},
}

func TestOpenRunRejectsCraftedFiles(t *testing.T) {
	for _, c := range craftedRuns {
		path := filepath.Join(t.TempDir(), runName(0, 1))
		if err := os.WriteFile(path, c.body, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := openRun(path, 0); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			if r != nil {
				r.close()
			}
			t.Errorf("%s: error %v, want ErrCorrupt for %q", c.name, err, c.want)
		}
	}
}

// TestShardBitsFollowTheBudget pins the derivation: 64 shards with no
// budget or from 1 MiB up — where the store behaves as it always has —
// and below that the most shards that leave each minSpillBytes.
func TestShardBitsFollowTheBudget(t *testing.T) {
	for budget, want := range map[int64]int{
		0: 64, 1 << 20: 64, 64 << 20: 64,
		512 << 10: 32, 128 << 10: 8, 64 << 10: 4, 32 << 10: 2,
		16 << 10: 1, 8 << 10: 1, 1 << 10: 1, 1: 1,
	} {
		s, err := Open(Config{Dir: t.TempDir(), MemBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(s.shards); got != want {
			t.Errorf("MemBudget %d: %d shards, want %d", budget, got, want)
		}
		if got := int(^uint64(0)>>s.shift) + 1; got != want {
			t.Errorf("MemBudget %d: the largest fingerprint lands in shard %d of %d", budget, got-1, want)
		}
		s.Close()
	}
	if s, err := Open(Config{}); err != nil || len(s.shards) != 64 {
		t.Errorf("memory-only store: %v, want 64 shards", err)
	}
}

// TestSpillsScaleWithBudgetNotShards holds the spill unit to the budget:
// uniform fingerprints fill every shard alike, so the largest shard is
// 1/shards of the budget when it trips, and with 64 shards under 64 KiB
// this workload spilled 253 times, a file per 2 KiB. A run should carry
// away a fair share of the budget: at most 8 spills per budget's worth of
// bytes inserted.
func TestSpillsScaleWithBudgetNotShards(t *testing.T) {
	const budget, n = 64 << 10, 8000
	s, err := Open(Config{Dir: t.TempDir(), MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < n; i++ {
		s.Visit(rng.Uint64(), nil, 1<<30)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	inserted := int64(n * entryOverhead)
	if limit := 8 * inserted / budget; s.Spills() == 0 || int64(s.Spills()) > limit {
		t.Fatalf("%d spills for %d bytes under a %d-byte budget, want 1..%d", s.Spills(), inserted, budget, limit)
	}
	if s.States() != n {
		t.Fatalf("%d states, want %d", s.States(), n)
	}
}

// checkpointAt writes one checkpoint of n uniform fingerprints under the
// given budget and returns the directory (spill and checkpoint alike)
// and the fingerprints.
func checkpointAt(t testing.TB, budget int64, n int) (Config, []uint64) {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemBudget: budget, CheckpointDir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	fps := make([]uint64, n)
	for i := range fps {
		fps[i] = rng.Uint64()
		s.Visit(fps[i], nil, 1<<30)
	}
	if err := s.WriteCheckpoint(Meta{ScenarioHash: "a", OptionsHash: "b"}, [][]int{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return cfg, fps
}

// TestResumeAdoptsManifestShardBits: the runs of a checkpoint are cut
// along the shard boundaries of the store that wrote it, so a resume
// under another budget must keep those boundaries — with its own it
// would look keys up in the wrong run and visit states twice.
func TestResumeAdoptsManifestShardBits(t *testing.T) {
	cfg, fps := checkpointAt(t, 128<<10, 4000)
	for _, budget := range []int64{8 << 10, 0, 4 << 20} {
		cfg.MemBudget = budget
		s, _, _, err := Resume(cfg, "a", "b")
		if err != nil {
			t.Fatalf("resume under budget %d: %v", budget, err)
		}
		if len(s.shards) != 8 {
			t.Fatalf("resume under budget %d: %d shards, want the manifest's 8", budget, len(s.shards))
		}
		for _, fp := range fps {
			if got := s.Visit(fp, nil, 1<<30); got != OutcomeSeen {
				t.Fatalf("resume under budget %d: visit %#x: %v, want OutcomeSeen", budget, fp, got)
			}
		}
		if s.States() != len(fps) {
			t.Fatalf("resume under budget %d: %d states, want %d", budget, s.States(), len(fps))
		}
		s.Close()
	}
}

// TestResumeRejectsBadShardGeometry: a schema-1 manifest (no shard bits),
// bits outside 0..6, and a shard index the bits do not reach are all
// damage, never an index into the shard table.
func TestResumeRejectsBadShardGeometry(t *testing.T) {
	cfg, _ := checkpointAt(t, 128<<10, 2000)
	path := filepath.Join(cfg.CheckpointDir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string][2]string{
		"schema 1":            {`"schema": 2`, `"schema": 1`},
		"bits above 6":        {`"shard_bits": 3`, `"shard_bits": 7`},
		"negative bits":       {`"shard_bits": 3`, `"shard_bits": -1`},
		"bits below a shard":  {`"shard_bits": 3`, `"shard_bits": 2`},
		"shard past the bits": {`"shard": 7`, `"shard": 8`},
	} {
		if strings.Count(string(good), edit[0]) != 1 {
			t.Fatalf("%s: manifest does not hold %q exactly once:\n%s", name, edit[0], good)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(good), edit[0], edit[1], 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		if s, _, _, err := Resume(cfg, "a", "b"); !errors.Is(err, ErrCorrupt) {
			if s != nil {
				s.Close()
			}
			t.Errorf("%s: error %v, want ErrCorrupt", name, err)
		}
	}
	// A run name the store could not have written never reaches the file
	// system, whatever it would have found there.
	for _, prefix := range []string{"../", "\\u0000", strings.Repeat("x", 300)} {
		if err := os.WriteFile(path, []byte(strings.Replace(string(good), `"file": "`, `"file": "`+prefix, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Resume(cfg, "a", "b"); !errors.Is(err, ErrCorrupt) {
			t.Errorf("run name prefixed with %.5q: error %v, want ErrCorrupt", prefix, err)
		}
	}
}

// FuzzOpenRun: whatever bytes a run file holds, openRun answers with a
// run that can be read end to end, and looked up key by key to the same
// answers, or with ErrCorrupt — never a panic, an allocation sized by the
// file's own claims, or another kind of error.
func FuzzOpenRun(f *testing.F) {
	dir := f.TempDir()
	r, err := writeRun(dir, 0, 1, []uint64{1, 9, 1 << 63})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(r.path)
	r.close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-8])
	for _, c := range craftedRuns {
		f.Add(c.body)
	}
	path := filepath.Join(dir, "fuzz"+runSuffix)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := openRun(path, 0)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("openRun: %v, want ErrCorrupt", err)
			}
			return
		}
		defer r.close()
		// The filter the image carries need not match its index, so with
		// it a lookup only has to answer; with one that passes everything,
		// every key appendKeys lists is found and the keys around it are
		// not.
		for _, fp := range listRun(t, r) {
			if _, err := r.lookup(fp, new(TierCounts)); err != nil {
				t.Fatalf("lookup %#x in a run openRun accepted: %v", fp, err)
			}
		}
		saturate(r)
		checkLookups(t, r)
	})
}

// FuzzResumeManifest: whatever bytes MANIFEST.json holds beside a real
// checkpoint's files, Resume adopts it or refuses it with one of its
// three errors — never a panic, never a shard index outside the table.
func FuzzResumeManifest(f *testing.F) {
	cfg, fps := checkpointAt(f, 128<<10, 600)
	cfg.MemBudget = 0 // the resumed store only looks up: nothing may spill into the shared directory
	path := filepath.Join(cfg.CheckpointDir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(strings.Replace(string(good), `"schema": 2`, `"schema": 1`, 1)))
	f.Add([]byte(strings.Replace(string(good), `"shard_bits": 3`, `"shard_bits": 63`, 1)))
	f.Add([]byte(strings.Replace(string(good), `"shard": 7`, `"shard": 64`, 1)))
	f.Add([]byte(`{"schema":2,"shard_bits":0,"meta":{"scenario_hash":"a","options_hash":"b"},"frontier":"../MANIFEST.json"}`))
	f.Add([]byte(strings.Replace(string(good), `"file": "`, `"file": "../`, 1)))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, _, _, err := Resume(cfg, "a", "b")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrMismatch) && !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("Resume: %v, want ErrCorrupt, ErrMismatch or ErrNoCheckpoint", err)
			}
			return
		}
		defer s.Close()
		for _, fp := range fps[:32] {
			s.Visit(fp, nil, 1<<30)
		}
		if err := s.Err(); err != nil {
			t.Fatalf("visits over an adopted checkpoint: %v", err)
		}
	})
}
