package farm

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"multicube/internal/farm/jobspec"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	if cfg.RatePerSec == 0 {
		cfg.RatePerSec = -1 // off: tests hammer from one address
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = time.Minute
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (int, jobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, st
}

func waitDone(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch st.Status {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const mcJob = `{"kind":"mc","mc":{"preset":"sb-writeonce-race"}}`

// TestSubmitTwiceSecondIsCachedByteIdentical is the tentpole's
// acceptance path: the same mc job over HTTP twice — the first runs,
// the second is a cache hit serving byte-identical result bytes.
func TestSubmitTwiceSecondIsCachedByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, st := postJob(t, ts, mcJob)
	if code != http.StatusAccepted || st.Status != StateQueued {
		t.Fatalf("first submit = %d %q, want 202 queued", code, st.Status)
	}
	first := waitDone(t, ts, st.JobID)
	if first.Status != StateDone || first.Verdict != "ok" {
		t.Fatalf("first job = %q/%q, want done/ok (preset exhausts clean)", first.Status, first.Verdict)
	}
	if len(first.Result) == 0 {
		t.Fatal("first job carries no result payload")
	}

	code2, st2 := postJob(t, ts, mcJob)
	if code2 != http.StatusOK || !st2.Cached {
		t.Fatalf("second submit = %d cached=%v, want 200 cached", code2, st2.Cached)
	}
	if st2.CacheTier != TierMem {
		t.Fatalf("cache tier = %q, want memory", st2.CacheTier)
	}
	if !bytes.Equal(st2.Result, first.Result) {
		t.Fatalf("cached result not byte-identical:\nfirst:  %s\ncached: %s", first.Result, st2.Result)
	}
	if st2.Fingerprint != first.Fingerprint {
		t.Fatal("fingerprint mismatch between run and cache hit")
	}
}

// TestSpellingVariantsShareCache proves canonicalization is the cache
// key: a spec spelled with explicit defaults hits the cache entry of
// the minimal spelling.
func TestSpellingVariantsShareCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, st := postJob(t, ts, `{"kind":"swarm","swarm":{"base_seed":3,"count":1,"machines":"multicube","max_states":1500}}`)
	waitDone(t, ts, st.JobID)

	// Different key order, schema stated explicitly: same fingerprint.
	code, st2 := postJob(t, ts, fmt.Sprintf(
		`{"swarm":{"max_states":1500,"machines":"multicube","count":1,"base_seed":3},"schema":%d,"kind":"swarm"}`,
		jobspec.SchemaVersion))
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("variant spelling = %d cached=%v, want 200 cached", code, st2.Cached)
	}
}

func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	_, st := postJob(t, ts1, mcJob)
	first := waitDone(t, ts1, st.JobID)
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	s1.Close(ctx)
	cancel()

	_, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	code, st2 := postJob(t, ts2, mcJob)
	if code != http.StatusOK || !st2.Cached || st2.CacheTier != TierDisk {
		t.Fatalf("post-restart submit = %d cached=%v tier=%q, want 200 disk hit", code, st2.Cached, st2.CacheTier)
	}
	if !bytes.Equal(st2.Result, first.Result) {
		t.Fatal("disk-recovered result not byte-identical to original run")
	}
}

// runOnBrokenDisk runs mcJob on a clean server and on one whose cache
// directory damage has broken at mcJob's entry, and returns the broken
// server's /metrics after checking its client saw a miss that ran to a
// result byte-identical to the clean server's.
func runOnBrokenDisk(t *testing.T, damage func(dir, fp string)) Metrics {
	t.Helper()
	_, clean := newTestServer(t, Config{Workers: 1})
	_, st := postJob(t, clean, mcJob)
	want := waitDone(t, clean, st.JobID)

	dir := t.TempDir()
	damage(dir, fingerprintOf(t, mcJob))
	_, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	code, st := postJob(t, ts, mcJob)
	if code != http.StatusAccepted || st.Cached {
		t.Fatalf("submit = %d cached=%v, want 202 and a miss", code, st.Cached)
	}
	got := waitDone(t, ts, st.JobID)
	if got.Status != StateDone || !bytes.Equal(got.Result, want.Result) {
		t.Fatalf("job = %q with result\n%s\nwant done with the clean server's\n%s", got.Status, got.Result, want.Result)
	}
	return getMetrics(t, ts)
}

// TestCachePutFailureIsCounted: a result the disk tier cannot store
// (a regular file sits where its shard directory belongs) still reaches
// its client, and /metrics counts the failed write.
func TestCachePutFailureIsCounted(t *testing.T) {
	m := runOnBrokenDisk(t, func(dir, fp string) {
		if err := os.WriteFile(filepath.Join(dir, fp[:2]), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	if m.CachePutErrors != 1 {
		t.Fatalf("cache_put_errors = %d, want 1", m.CachePutErrors)
	}
}

// TestUnreadableCacheEntryIsAMiss: an entry the disk tier cannot read
// (its path is a directory) is a miss and a recompute — not a 5xx and
// not a wrong result. The recomputed result cannot replace it either,
// so its write is counted as failed.
func TestUnreadableCacheEntryIsAMiss(t *testing.T) {
	m := runOnBrokenDisk(t, func(dir, fp string) {
		if err := os.MkdirAll(filepath.Join(dir, fp[:2], fp+".json"), 0o755); err != nil {
			t.Fatal(err)
		}
	})
	if m.CacheMisses != 1 || m.CacheHitsDisk != 0 || m.CachePutErrors != 1 {
		t.Fatalf("misses=%d disk hits=%d put errors=%d, want 1, 0, 1", m.CacheMisses, m.CacheHitsDisk, m.CachePutErrors)
	}
}

func TestStreamDeliversProgressAndResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, st := postJob(t, ts, `{"kind":"mc","mc":{"preset":"read-race"}}`)
	resp, err := http.Get(ts.URL + "/jobs/" + st.JobID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var sawProgress, sawResult bool
	for sc.Scan() {
		var frame struct {
			Type   string `json:"type"`
			Status string `json:"status"`
			Result json.RawMessage
		}
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch frame.Type {
		case "progress":
			sawProgress = true
		case "result":
			sawResult = true
			if frame.Status != StateDone {
				t.Fatalf("result frame status = %q", frame.Status)
			}
			if len(frame.Result) == 0 {
				t.Fatal("result frame has no payload")
			}
		default:
			t.Fatalf("unknown frame type %q", frame.Type)
		}
	}
	if !sawProgress || !sawResult {
		t.Fatalf("stream: progress=%v result=%v, want both", sawProgress, sawResult)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, st := postJob(t, ts, mcJob)
	waitDone(t, ts, st.JobID)
	postJob(t, ts, mcJob) // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if m.JobsSubmitted != 2 || m.JobsCompleted != 1 {
		t.Fatalf("metrics: submitted=%d completed=%d, want 2/1", m.JobsSubmitted, m.JobsCompleted)
	}
	if m.CacheHitsMemory != 1 || m.CacheMisses != 1 || m.CacheHitRatio != 0.5 {
		t.Fatalf("metrics cache: mem=%d miss=%d ratio=%v", m.CacheHitsMemory, m.CacheMisses, m.CacheHitRatio)
	}
	if m.StatesExplored == 0 {
		t.Fatal("metrics: states_explored not accounted")
	}
	if m.Workers != 1 || m.QueueCap == 0 {
		t.Fatalf("metrics gauges: workers=%d queue_cap=%d", m.Workers, m.QueueCap)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hr.StatusCode)
	}
}

func TestRejectsInvalidSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{`,
		`{"kind":"nope"}`,
		`{"kind":"mc"}`,
		`{"kind":"mc","mc":{"preset":"no-such-preset"}}`,
		`{"kind":"swarm","swarm":{"count":-1}}`,
	} {
		code, _ := postJob(t, ts, body)
		if code != http.StatusBadRequest {
			t.Errorf("submit %q = %d, want 400", body, code)
		}
	}
	// Over-limit body.
	big := `{"kind":"mc","mc":{"preset":"` + strings.Repeat("x", 2<<20) + `"}}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}
}

func TestRateLimitReturns429WithRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RatePerSec: 1, RateBurst: 1})
	// Burst of 1: the first request spends the token, the second 429s.
	code, _ := postJob(t, ts, mcJob)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("first request = %d", code)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(mcJob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestQueueBackpressure ends by closing the server with a budget already
// spent, as a SIGTERM past its grace period would: the running job is
// canceled and the queued one with it. Its body takes milliseconds; the
// cleanup's drain, which would wait for the accepted searches to finish,
// took 6–12 s.
func TestQueueBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Distinct slow-ish jobs; with one worker and one queue slot, at
	// least one of the later submissions must be rejected with 429.
	presets := []string{"readmod-race", "sync-race", "mlt-overflow-lock", "read-race"}
	var rejected bool
	for _, p := range presets {
		code, _ := postJob(t, ts, fmt.Sprintf(`{"kind":"mc","mc":{"preset":"%s"}}`, p))
		if code == http.StatusTooManyRequests {
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("no submission hit queue backpressure")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	s.Close(ctx)
}

// TestGracefulDrainCancelsInFlight covers the SIGTERM path: Close with
// an expired budget cancels the running job promptly; the job is marked
// canceled — never lost, never cached.
func TestGracefulDrainCancelsInFlight(t *testing.T) {
	s, err := New(Config{Workers: 1, CacheDir: t.TempDir(), RatePerSec: -1, JobTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st := postJob(t, ts, `{"kind":"mc","mc":{"preset":"readmod-race"}}`)
	// Wait for it to start running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := http.Get(ts.URL + "/jobs/" + st.JobID)
		var cur jobStatus
		json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if cur.Status == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %q", cur.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	if err := s.Close(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Close = %v, want deadline exceeded (forced cancel)", err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("drain took %v; cancellation not prompt", elapsed)
	}
	final := waitDone(t, ts, st.JobID)
	if final.Status != StateCanceled || final.Verdict != "canceled" {
		t.Fatalf("drained job = %q/%q, want canceled/canceled", final.Status, final.Verdict)
	}
	// Canceled partial work must not poison the cache.
	if _, _, ok := s.cache.Get(final.Fingerprint); ok {
		t.Fatal("canceled job was cached")
	}
	// Submissions after drain are refused.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(mcJob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit = %d, want 503", resp.StatusCode)
	}
}

func TestCorpusEndpointsRecordAndReplay(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	// Seed the corpus directly (finding a real violating swarm seed is
	// the fuzzer's job, not this test's) and replay through the API.
	s.corpus.Add(CorpusEntry{Seed: 11, SingleBus: false, Kind: "k", Msg: "m", MaxStates: 1500})

	resp, err := http.Get(ts.URL + "/corpus")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Entries []CorpusEntry `json:"entries"`
	}
	json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if len(listing.Entries) != 1 || listing.Entries[0].Seed != 11 {
		t.Fatalf("corpus listing = %+v", listing.Entries)
	}

	rr, err := http.Post(ts.URL+"/corpus/replay", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var replay struct {
		Submitted []jobStatus `json:"submitted"`
	}
	json.NewDecoder(rr.Body).Decode(&replay)
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK || len(replay.Submitted) != 1 {
		t.Fatalf("replay = %d with %d jobs, want 200 with 1", rr.StatusCode, len(replay.Submitted))
	}
	st := replay.Submitted[0]
	if st.JobID != "" {
		waitDone(t, ts, st.JobID)
	}
	// A second replay of the now-verified regression is a cache hit.
	rr2, err := http.Post(ts.URL+"/corpus/replay", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(rr2.Body).Decode(&replay)
	rr2.Body.Close()
	if len(replay.Submitted) != 1 || !replay.Submitted[0].Cached {
		t.Fatalf("second replay not served from cache: %+v", replay.Submitted)
	}
}

// TestSimAndLitmusJobsEndToEnd submits one small job of each timed-machine
// kind through the HTTP handler, checks its verdict and payload, and
// requires the resubmission to be a byte-identical cache hit.
func TestSimAndLitmusJobsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, tc := range []struct {
		kind, spec string
		check      func(*jobspec.Result) error
	}{
		{"sim", `{"kind":"sim","sim":{"n":2,"seed":1,"requests":50}}`, func(r *jobspec.Result) error {
			s := r.Sim
			if s == nil || s.References != 2*2*50 || s.BusTransactions == 0 || s.ElapsedSimNS <= 0 ||
				s.Efficiency <= 0 || s.Efficiency > 1 || s.BusRatePerMS <= 0 || len(s.Invariants) != 0 {
				return fmt.Errorf("sim payload %+v", s)
			}
			return nil
		}},
		{"litmus", `{"kind":"litmus","litmus":{"test":"mp","seeds":3,"rounds":2}}`, func(r *jobspec.Result) error {
			// mp has two variables: two placements, three seeds each.
			if l := r.Litmus; l == nil || l.Runs != 6 || len(l.Failures) != 0 {
				return fmt.Errorf("litmus payload %+v", l)
			}
			return nil
		}},
	} {
		code, st := postJob(t, ts, tc.spec)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit = %d, want 202", tc.kind, code)
		}
		done := waitDone(t, ts, st.JobID)
		if done.Status != StateDone || done.Verdict != "ok" {
			t.Fatalf("%s: job = %q/%q (error %q), want done/ok", tc.kind, done.Status, done.Verdict, done.Error)
		}
		var res jobspec.Result
		if err := json.Unmarshal(done.Result, &res); err != nil {
			t.Fatalf("%s: result: %v", tc.kind, err)
		}
		if res.Kind != tc.kind || res.Verdict != "ok" || res.Fingerprint != done.Fingerprint {
			t.Fatalf("%s: result kind=%q verdict=%q fingerprint=%q, job fingerprint %q",
				tc.kind, res.Kind, res.Verdict, res.Fingerprint, done.Fingerprint)
		}
		if err := tc.check(&res); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		code, again := postJob(t, ts, tc.spec)
		if code != http.StatusOK || !again.Cached || !bytes.Equal(again.Result, done.Result) {
			t.Fatalf("%s: resubmission = %d cached=%v, result byte-identical %v",
				tc.kind, code, again.Cached, bytes.Equal(again.Result, done.Result))
		}
	}
}
