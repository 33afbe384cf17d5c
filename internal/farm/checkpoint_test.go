package farm

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

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
	r.Cost = mc.Cost{}
	return r
}

// TestExecutorCheckpointResume drives the resumable-job path end to
// end: a canceled mc job leaves its checkpoint behind, the resubmitted
// identical job resumes from it (Resumed=true) to the byte-identical
// verdict and state count, and the checkpoint directory is deleted once
// the job completes.
func TestExecutorCheckpointResume(t *testing.T) {
	root := t.TempDir()
	x := executor{checkpointRoot: root, mcCheckpointEvery: 10}
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

// TestServerCheckpointsUnderCacheDir: a server with a CacheDir
// checkpoints mc jobs under <CacheDir>/mc-checkpoints at the explorer's
// default cadence, and a completed job leaves no checkpoint directory
// behind; a server without a CacheDir does not checkpoint.
func TestServerCheckpointsUnderCacheDir(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	root := filepath.Join(dir, "mc-checkpoints")
	if want := (executor{checkpointRoot: root}); s.exec != want {
		t.Fatalf("executor %+v, want %+v", s.exec, want)
	}
	// read-race runs ~3300 executions: several checkpoints at 512.
	_, st := postJob(t, ts, `{"kind":"mc","mc":{"preset":"read-race"}}`)
	done := waitDone(t, ts, st.JobID)
	if done.Verdict != "ok" {
		t.Fatalf("job verdict %q (error %q), want ok", done.Verdict, done.Error)
	}
	fp := done.Fingerprint
	if _, err := os.Stat(filepath.Join(root, fpShard(fp))); err != nil {
		t.Fatalf("the job checkpointed nothing under %s: %v", root, err)
	}
	if _, err := os.Stat(filepath.Join(root, fpShard(fp), fp)); !os.IsNotExist(err) {
		t.Fatalf("the completed job left its checkpoint directory behind (stat err %v)", err)
	}

	mem, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close(context.Background())
	if mem.exec != (executor{}) {
		t.Fatalf("a server without a CacheDir checkpoints: %+v", mem.exec)
	}
}
