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
