package farm

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"multicube/internal/farm/jobspec"
	"multicube/internal/mc"
)

// mcSpec builds a normalized mc spec with its fingerprint.
func mcSpec(t *testing.T, body string) (*jobspec.Spec, string) {
	t.Helper()
	var raw jobspec.Spec
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	spec, err := raw.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return spec, fp
}

// stripResume removes the fields a resumed run legitimately differs in —
// provenance, the store's disk tier, and the host-cost counters (a
// resumed search replays its checkpointed frontier from reset; see
// comparable in internal/mc's tests); everything else must match an
// uninterrupted execution exactly.
func stripResume(r mc.Result) mc.Result {
	r.Resumed = false
	r.ResumeNote = ""
	r.Spills, r.Syncs = 0, 0
	r.DiskBytes = 0
	r.Steps, r.ReplaySteps = 0, 0
	r.FPRecomputes, r.FPIncremental = 0, 0
	r.FPPoints, r.FPCombines = 0, 0
	r.Restores, r.PeakBoundaries = 0, 0
	r.StoreHot, r.StoreDisk, r.StoreReads = 0, 0, 0
	return r
}

// TestExecutorCheckpointResume drives the resumable-job path end to
// end: a canceled mc job leaves its checkpoint behind, the resubmitted
// identical job resumes from it (Resumed=true) to the byte-identical
// verdict and state count, and the checkpoint directory is deleted once
// the job completes.
func TestExecutorCheckpointResume(t *testing.T) {
	root := t.TempDir()
	x := executor{mcWorkers: 1, checkpointRoot: root, mcCheckpointEvery: 10}
	spec, fp := mcSpec(t, `{"kind":"mc","mc":{"preset":"read-race"}}`)
	ckdir := filepath.Join(root, fpShard(fp), fp)

	base, err := mc.Explore(*spec.MC.Scenario, spec.MC.ExploreOptions())
	if err != nil {
		t.Fatal(err)
	}

	// First attempt: cancel after 200 progress reports (one per
	// execution), well past many 10-execution checkpoint boundaries and
	// well before read-race's ~3300 executions finish.
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	res := x.run(ctx, spec, fp, func(Progress) {
		if calls++; calls == 200 {
			cancel()
		}
	})
	cancel()
	if res.Verdict != "canceled" {
		t.Fatalf("interrupted job verdict = %q, want canceled (after %d reports)", res.Verdict, calls)
	}
	if _, err := os.Stat(filepath.Join(ckdir, "MANIFEST.json")); err != nil {
		t.Fatalf("canceled job left no checkpoint: %v", err)
	}

	// Resubmission: same spec, fresh context. Must resume, finish, and
	// clean its checkpoint up.
	res2 := x.run(context.Background(), spec, fp, nil)
	if res2.Verdict != "ok" {
		t.Fatalf("resumed job verdict = %q (err %q), want ok", res2.Verdict, res2.Error)
	}
	if !res2.MC.Resumed {
		t.Fatal("resubmitted job did not resume from the checkpoint")
	}
	if !reflect.DeepEqual(stripResume(base), stripResume(res2.MC.Result)) {
		t.Fatalf("resumed farm job differs from direct run:\n  base:    %+v\n  resumed: %+v",
			base, res2.MC.Result)
	}
	if _, err := os.Stat(ckdir); !os.IsNotExist(err) {
		t.Fatalf("completed job left its checkpoint dir behind (stat err %v)", err)
	}
}

// TestNewRejectsCheckpointWithParallelExplorer pins the guard: an
// operator who asks for resumable mc jobs and explorer parallelism at
// once is told at start-up, not served jobs that silently never
// checkpoint.
func TestNewRejectsCheckpointWithParallelExplorer(t *testing.T) {
	srv, err := New(Config{MCCheckpointDir: t.TempDir(), MCWorkers: 2})
	if err == nil {
		srv.Close(context.Background())
		t.Fatal("New accepted MCCheckpointDir with MCWorkers 2")
	}
	for _, want := range []string{"MCCheckpointDir", "MCWorkers"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	srv, err = New(Config{MCCheckpointDir: t.TempDir(), MCWorkers: 1})
	if err != nil {
		t.Fatalf("sequential explorer with checkpoints refused: %v", err)
	}
	srv.Close(context.Background())
}

// TestServerSurfacesResumeMetrics checks the /metrics plumbing for the
// resume gauge without requiring an actual resume: a server that ran a
// job from scratch reports it at zero.
func TestServerSurfacesResumeMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, st := postJob(t, ts, `{"kind":"mc","mc":{"preset":"read-race"}}`)
	waitDone(t, ts, st.JobID)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.MCJobsResumed != 0 {
		t.Fatalf("mc_jobs_resumed = %d on a farm that never resumed", m.MCJobsResumed)
	}
}

// TestCacheDiskEvictionBySize fills a size-bounded disk tier and checks
// the least-recently-written entries are swept, the gauge tracks the
// survivors, and evicted fingerprints re-run (miss) on a cold cache.
func TestCacheDiskEvictionBySize(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	fps := []string{"aa01", "bb02", "cc03", "dd04"}
	entrySize := 0
	for i, fp := range fps {
		data := testResult(t, fp)
		entrySize = len(data)
		if err := c.Put(fp, data); err != nil {
			t.Fatal(err)
		}
		// Distinct, strictly increasing mtimes so LRW order is exact.
		when := time.Now().Add(time.Duration(i-len(fps)) * time.Hour)
		if err := os.Chtimes(c.path(fp), when, when); err != nil {
			t.Fatal(err)
		}
	}
	// Budget for two entries: the two oldest must go.
	c.SetDiskLimits(int64(2*entrySize), 0)
	c.evict(time.Now())

	bytes, evictions := c.DiskStats()
	if evictions != 2 {
		t.Fatalf("evictions = %d, want 2", evictions)
	}
	if bytes != int64(2*entrySize) {
		t.Fatalf("disk bytes = %d, want %d", bytes, 2*entrySize)
	}
	cold, err := NewCache(dir, 4) // fresh cache: no memory tier to mask disk state
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range fps[:2] {
		if _, _, ok := cold.Get(fp); ok {
			t.Fatalf("%s survived a sweep that should have evicted it", fp)
		}
	}
	for _, fp := range fps[2:] {
		if _, tier, ok := cold.Get(fp); !ok || tier != TierDisk {
			t.Fatalf("%s: ok=%v tier=%q, want disk hit", fp, ok, tier)
		}
	}
}

// TestCacheDiskEvictionByAge backdates entries past the age cap and
// checks the sweep expires exactly those.
func TestCacheDiskEvictionByAge(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDiskLimits(0, time.Hour)
	for _, fp := range []string{"ee05", "ff06"} {
		if err := c.Put(fp, testResult(t, fp)); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(c.path("ee05"), old, old); err != nil {
		t.Fatal(err)
	}
	c.evict(time.Now())
	if _, evictions := c.DiskStats(); evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (only the backdated entry)", evictions)
	}
	cold, err := NewCache(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cold.Get("ee05"); ok {
		t.Fatal("expired entry survived the age sweep")
	}
	if _, tier, ok := cold.Get("ff06"); !ok || tier != TierDisk {
		t.Fatalf("fresh entry: ok=%v tier=%q, want disk hit", ok, tier)
	}
}

// TestCacheEvictionLeavesMemoryTier pins that the disk sweep never
// touches the memory LRU: an evicted entry still serves from memory in
// the same process.
func TestCacheEvictionLeavesMemoryTier(t *testing.T) {
	c, err := NewCache(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("aa07", testResult(t, "aa07")); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	os.Chtimes(c.path("aa07"), old, old)
	c.SetDiskLimits(0, time.Minute)
	c.evict(time.Now())
	if _, tier, ok := c.Get("aa07"); !ok || tier != TierMem {
		t.Fatalf("ok=%v tier=%q, want a memory hit surviving the disk sweep", ok, tier)
	}
}
