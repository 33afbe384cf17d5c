package mc

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"multicube/internal/statespace"
)

// openRuns lists the spilled runs of the store at dir that this process
// holds open: each run's file name and descriptor. It skips the test
// where /proc/self/fd is missing.
func openRuns(t *testing.T, dir string) (names []string, fds []int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, e := range ents {
		path, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		fd, aerr := strconv.Atoi(e.Name())
		if err != nil || aerr != nil || filepath.Dir(path) != dir || !strings.HasSuffix(path, ".run") {
			continue
		}
		names, fds = append(names, filepath.Base(path)), append(fds, fd)
	}
	return names, fds
}

// redirect points descriptor fd at the file or directory target; the
// run that owns fd keeps using it, now against target.
func redirect(t *testing.T, fd int, target string) {
	t.Helper()
	f, err := os.Open(target)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := syscall.Dup3(int(f.Fd()), fd, syscall.O_CLOEXEC); err != nil {
		t.Fatal(err)
	}
}

// breakUnsyncedRun points the descriptor of one spilled run that the
// manifest under ckpt does not name — so no checkpoint has synced it —
// at /dev/null, where fsync fails with EINVAL. It takes a run whose shard
// holds fewer than statespace's maxRunsPerShard (4) open runs, so the
// flush at the head of the checkpoint compacts nothing and reads nothing
// from it, and reports the run's name, or "" if there is none.
func breakUnsyncedRun(t *testing.T, store, ckpt string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(ckpt, "MANIFEST.json"))
	if err != nil {
		return "" // no checkpoint to fall back on yet
	}
	var m struct {
		Shards []struct{ Runs []struct{ File string } }
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	named := make(map[string]bool)
	for _, sh := range m.Shards {
		for _, r := range sh.Runs {
			named[r.File] = true
		}
	}
	names, fds := openRuns(t, store)
	open := make(map[string]int) // shard-NN → its open runs
	for _, name := range names {
		open[name[:len("shard-NN")]]++
	}
	for i, name := range names {
		if named[name] || open[name[:len("shard-NN")]] >= 4 {
			continue
		}
		redirect(t, fds[i], os.DevNull)
		return name
	}
	return ""
}

// TestStoreReadFailureStopsTheSearch is a failing read under Explore: a
// spilled run whose descriptor is pointed at a directory fails every
// pread with EISDIR, whether a lookup or a compaction reads it. The
// search must stop at the frontier boundary that follows the failed
// read — the run that saw it is not reported, and no run follows it —
// with the error naming the run and no verdict. The error is the disk's,
// not a corrupt checkpoint's: the run was sound when it was written.
func TestStoreReadFailureStopsTheSearch(t *testing.T) {
	sc, err := Preset("litmus-coww-3x3")
	if err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(t.TempDir(), "store")
	broken := ""
	var last Progress
	res, err := Explore(sc, Options{
		MaxStates: 400000, StoreDir: store, MemBudget: 8 << 10,
		Progress: func(p Progress) {
			last = p
			if broken != "" || p.Runs < 200 {
				return
			}
			if names, fds := openRuns(t, store); len(names) > 0 {
				broken = names[0]
				redirect(t, fds[0], store)
			}
		},
	})
	if broken == "" {
		t.Fatalf("no spilled run to break (search returned %v)", err)
	}
	if err == nil || !strings.Contains(err.Error(), "run "+broken) || !strings.Contains(err.Error(), "is a directory") {
		t.Fatalf("search over a run that cannot be read returned %v, want its read error naming %s", err, broken)
	}
	if errors.Is(err, statespace.ErrCorrupt) {
		t.Fatalf("a failing read during the search is reported as a corrupt checkpoint: %v", err)
	}
	if res.Exhausted || res.Violation != nil || res.SCVerdict != "" {
		t.Fatalf("failed search reports exhausted=%v, verdict %q, violation %v; want none",
			res.Exhausted, res.SCVerdict, res.Violation)
	}
	if res.Runs != last.Runs+1 {
		t.Fatalf("search stopped at run %d, last reported run %d: want the run after it", res.Runs, last.Runs)
	}
	t.Logf("%s broken, search stopped at run %d: %v", broken, res.Runs, err)
}

// TestStoreSyncFailureStopsTheSearch is the failing disk of
// statespace's TestFailedSyncLeavesNoManifest driven through Explore: a
// spilled run whose fsync fails when a checkpoint pins it stops the search
// at that checkpoint with the error and no verdict, as a failed spill does
// (TestStoreFailureStopsAtNextBoundary), and the checkpoint before it is
// the one a resume continues from, to the uninterrupted result.
func TestStoreSyncFailureStopsTheSearch(t *testing.T) {
	sc, err := Preset("litmus-coww-3x3")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Explore(sc, Options{MaxStates: 400000})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, ckpt := filepath.Join(dir, "store"), filepath.Join(dir, "ckpt")
	const every = 500
	opts := Options{MaxStates: 400000, StoreDir: store, MemBudget: 8 << 10, CheckpointDir: ckpt, CheckpointEvery: every}
	manifest := filepath.Join(ckpt, "MANIFEST.json")
	checkpoints, broken, at := 0, "", 0
	var kept []byte
	o := opts
	o.faultHook = func(point string) {
		if point == "pre-checkpoint" && broken == "" {
			checkpoints++
			if broken = breakUnsyncedRun(t, store, ckpt); broken != "" {
				at = checkpoints
				kept, _ = os.ReadFile(manifest)
			}
		}
	}
	res, err := Explore(sc, o)
	if broken == "" {
		t.Fatalf("no checkpoint found an unsynced run to break (search returned %v)", err)
	}
	if !errors.Is(err, syscall.EINVAL) || !strings.Contains(err.Error(), "sync "+broken) {
		t.Fatalf("search over a run whose fsync fails returned %v, want its sync error", err)
	}
	if res.Exhausted || res.Violation != nil || res.SCVerdict != "" || res.Runs != at*every {
		t.Fatalf("search stopped at run %d (exhausted=%v, verdict %q, violation %v), want run %d and no verdict",
			res.Runs, res.Exhausted, res.SCVerdict, res.Violation, at*every)
	}
	if got, _ := os.ReadFile(manifest); !bytes.Equal(got, kept) {
		t.Fatal("the failed checkpoint replaced the manifest before it")
	}
	t.Logf("fsync of %s failed at checkpoint %d (run %d): %v", broken, at, res.Runs, err)

	opts.Resume = true
	resumed, err := Explore(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed {
		t.Fatalf("resume after the failed sync searched afresh: %s", resumed.ResumeNote)
	}
	if !reflect.DeepEqual(comparable(base), comparable(resumed)) {
		t.Fatalf("resumed search differs:\n  base:    %+v\n  resumed: %+v", base, resumed)
	}
}
