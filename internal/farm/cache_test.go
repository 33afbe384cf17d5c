package farm

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"multicube/internal/farm/jobspec"
)

// testResult builds a valid canonical result payload for fingerprint fp.
func testResult(t testing.TB, fp string) []byte {
	t.Helper()
	r := jobspec.Result{
		Schema: jobspec.SchemaVersion, Kind: jobspec.KindMC,
		Fingerprint: fp, Verdict: "ok",
	}
	b, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCacheMemoryTier(t *testing.T) {
	c, err := NewCache("", 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("aa11", testResult(t, "aa11"))
	got, tier, ok := c.Get("aa11")
	if !ok || tier != TierMem {
		t.Fatalf("Get = ok=%v tier=%q, want memory hit", ok, tier)
	}
	if string(got) != string(testResult(t, "aa11")) {
		t.Fatal("payload mismatch")
	}
	if _, _, ok := c.Get("bb22"); ok {
		t.Fatal("unexpected hit for absent key")
	}
}

func TestCacheMemoryLRUEviction(t *testing.T) {
	c, err := NewCache("", 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("aa", testResult(t, "aa"))
	c.Put("bb", testResult(t, "bb"))
	c.Get("aa") // refresh aa so bb is the LRU victim
	c.Put("cc", testResult(t, "cc"))
	if _, _, ok := c.Get("bb"); ok {
		t.Fatal("bb should have been evicted (memory-only cache)")
	}
	for _, fp := range []string{"aa", "cc"} {
		if _, _, ok := c.Get(fp); !ok {
			t.Fatalf("%s should have survived", fp)
		}
	}
}

func TestCacheDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := testResult(t, "deadbeef")
	if err := c1.Put("deadbeef", want); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory serves the entry from disk
	// and promotes it to memory.
	c2, err := NewCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, tier, ok := c2.Get("deadbeef")
	if !ok || tier != TierDisk {
		t.Fatalf("first Get = ok=%v tier=%q, want disk hit", ok, tier)
	}
	if string(got) != string(want) {
		t.Fatal("recovered payload differs from stored payload")
	}
	if _, tier, ok := c2.Get("deadbeef"); !ok || tier != TierMem {
		t.Fatalf("second Get = ok=%v tier=%q, want promoted memory hit", ok, tier)
	}
}

// TestCacheCountsOnlyItsEntries: the cache shares its directory with
// the server's corpus (<dir>/corpus/*.json) and mc checkpoints
// (<dir>/mc-checkpoints/...), and a cache opened over it counts only its
// own <shard>/<fp>.json entries and their bytes.
func TestCacheCountsOnlyItsEntries(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("deadbeef", testResult(t, "deadbeef")); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(c1.path("deadbeef"))
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []string{"corpus/42-multicube.json", "mc-checkpoints/ab/abcdef/MANIFEST.json"} {
		path := filepath.Join(dir, filepath.FromSlash(other))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(`{"seed":42}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c2, err := NewCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, disk, bytes := c2.Stats(); disk != 1 || bytes != fi.Size() {
		t.Fatalf("reopened cache counts %d disk entries of %d bytes, want 1 of %d", disk, bytes, fi.Size())
	}
}

func TestCacheMemEvictionFallsBackToDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("aa", testResult(t, "aa"))
	c.Put("bb", testResult(t, "bb")) // evicts aa from memory
	if _, tier, ok := c.Get("aa"); !ok || tier != TierDisk {
		t.Fatalf("Get(aa) = ok=%v tier=%q, want disk hit after memory eviction", ok, tier)
	}
}

func TestCacheRejectsCorruptDiskEntry(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("cafe", testResult(t, "cafe")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file on disk behind the cache's back.
	path := filepath.Join(dir, "ca", "cafe.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c2.Get("cafe"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not deleted")
	}
}

func TestCacheRejectsMismatchedFingerprint(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Store bytes whose embedded fingerprint disagrees with the key.
	if err := c1.Put("0011", testResult(t, "9999")); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c2.Get("0011"); ok {
		t.Fatal("entry with mismatched fingerprint served as a hit")
	}
}

// FuzzCacheGet: whatever bytes sit at a cache entry's path, Get answers
// with a miss that has removed the file, or with bytes that decode to a
// result that validates under the fingerprint asked for — never a panic.
func FuzzCacheGet(f *testing.F) {
	const fp = "ab12"
	valid := testResult(f, fp)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(testResult(f, "cd34"))
	f.Add([]byte("null"))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewCache(dir, 1) // a fresh memory tier: every Get reads the disk
		if err != nil {
			t.Fatal(err)
		}
		path := c.path(fp)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, tier, ok := c.Get(fp)
		if !ok {
			if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("a miss left the entry on disk (stat: %v)", err)
			}
			return
		}
		var r jobspec.Result
		if err := json.Unmarshal(got, &r); err != nil || r.Validate() != nil || r.Fingerprint != fp || tier != TierDisk {
			t.Fatalf("hit from %s that does not validate under %s: %q", tier, fp, got)
		}
	})
}
