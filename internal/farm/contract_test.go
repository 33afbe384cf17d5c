package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// contractStep is one request of TestSubmissionContract and the exact
// reply it must get. body is compact JSON in which the <placeholders> of
// contractEnv stand for what only the run knows (fingerprints, job
// results); the server's reply must equal it indented the way writeJSON
// indents, byte for byte.
type contractStep struct {
	name       string
	path, post string
	code       int
	retryAfter string
	body       string
}

// contractEnv maps each "<NAME>" placeholder to its value.
type contractEnv map[string]string

func (e contractEnv) fill(s string) string {
	var pairs []string
	for k, v := range e {
		pairs = append(pairs, k, v)
	}
	return strings.NewReplacer(pairs...).Replace(s)
}

func (e contractEnv) run(t *testing.T, ts *httptest.Server, steps []contractStep) {
	t.Helper()
	for _, st := range steps {
		resp, err := http.Post(ts.URL+st.path, "application/json", strings.NewReader(st.post))
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, []byte(e.fill(st.body)), "", " "); err != nil {
			t.Fatalf("%s: expectation is not JSON: %v", st.name, err)
		}
		want.WriteByte('\n')
		if resp.StatusCode != st.code || resp.Header.Get("Retry-After") != st.retryAfter {
			t.Errorf("%s: status %d Retry-After %q, want %d %q", st.name,
				resp.StatusCode, resp.Header.Get("Retry-After"), st.code, st.retryAfter)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: body\n%s\nwant\n%s", st.name, got, want.Bytes())
		}
	}
}

// result waits for job id and returns its result compacted, the form the
// placeholders take.
func (e contractEnv) result(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	st := waitDone(t, ts, id)
	if st.Status != StateDone {
		t.Fatalf("job %s ended %q/%q", id, st.Status, st.Verdict)
	}
	var b bytes.Buffer
	if err := json.Compact(&b, st.Result); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// submissionCounters is the part of /metrics the submission path owns.
type submissionCounters struct {
	Submitted, Dedup, HitsMem, HitsDisk, Misses, QueueRejected, RateLimited uint64
}

func getMetrics(t *testing.T, ts *httptest.Server) Metrics {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func getCounters(t *testing.T, ts *httptest.Server) submissionCounters {
	t.Helper()
	m := getMetrics(t, ts)
	return submissionCounters{m.JobsSubmitted, m.DedupHits, m.CacheHitsMemory, m.CacheHitsDisk,
		m.CacheMisses, m.QueueRejected, m.RateLimited}
}

func wantCounters(t *testing.T, ts *httptest.Server, want submissionCounters) {
	t.Helper()
	if got := getCounters(t, ts); got != want {
		t.Errorf("/metrics counters %+v, want %+v", got, want)
	}
}

func fingerprintOf(t *testing.T, spec string) string {
	t.Helper()
	_, fp := mcSpec(t, spec)
	return fp
}

// TestSubmissionContract pins what a client of POST /jobs and
// POST /corpus/replay sees for every outcome of a submission — status
// code, Retry-After, body bytes, counters — so the two endpoints can
// share one submission path without either changing.
func TestSubmissionContract(t *testing.T) {
	const (
		jobX     = `{"kind":"mc","mc":{"preset":"sb-writeonce-race"}}`
		jobY     = `{"kind":"mc","mc":{"preset":"read-race"}}`
		jobE     = `{"kind":"swarm","swarm":{"base_seed":11,"count":1,"machines":"multicube","max_states":1500}}`
		jobE2    = `{"kind":"swarm","swarm":{"base_seed":12,"count":1,"machines":"multicube","max_states":1500}}`
		blocker  = `{"kind":"mc","mc":{"preset":"litmus-iriw-3x3","options":{"max_states":5000000}}}`
		badEntry = `{"fingerprint":"","status":"","error":"jobspec: swarm max_states=-1 out of range [0,5000000]"}`
	)
	env := contractEnv{
		"<FPX>": fingerprintOf(t, jobX), "<FPY>": fingerprintOf(t, jobY),
		"<FPE2>": fingerprintOf(t, jobE2), "<FPE>": fingerprintOf(t, jobE),
		"<FPB>": fingerprintOf(t, blocker), "<BAD>": badEntry,
	}
	entryE := CorpusEntry{Seed: 11, Kind: "k", Msg: "m", MaxStates: 1500}
	entryE2 := CorpusEntry{Seed: 12, Kind: "k", Msg: "m", MaxStates: 1500}

	// Cache tiers and draining. A corpus entry no spec can be made of
	// (seed 5, listed first) rides along in every replay.
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	s.corpus.Add(CorpusEntry{Seed: 5, Kind: "k", Msg: "m", MaxStates: -1})
	s.corpus.Add(entryE)
	env.run(t, ts, []contractStep{
		{"new job", "/jobs", jobX, 202, "", `{"job_id":"j1","fingerprint":"<FPX>","status":"queued"}`},
	})
	env["<RX>"] = env.result(t, ts, "j1")
	env.run(t, ts, []contractStep{
		{"memory hit", "/jobs", jobX, 200, "",
			`{"fingerprint":"<FPX>","status":"done","cached":true,"cache_tier":"memory","result":<RX>}`},
		{"replay: bad spec, new job", "/corpus/replay", "", 200, "",
			`{"submitted":[<BAD>,{"job_id":"j2","fingerprint":"<FPE>","status":"queued"}]}`},
	})
	env["<RE>"] = env.result(t, ts, "j2")
	env.run(t, ts, []contractStep{
		{"replay: memory hit", "/corpus/replay", "", 200, "",
			`{"submitted":[<BAD>,{"fingerprint":"<FPE>","status":"done","cached":true,"cache_tier":"memory","result":<RE>}]}`},
	})
	wantCounters(t, ts, submissionCounters{Submitted: 4, HitsMem: 2, Misses: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	s.corpus.Add(entryE2)
	env.run(t, ts, []contractStep{
		{"draining: a hit is still served", "/jobs", jobX, 200, "",
			`{"fingerprint":"<FPX>","status":"done","cached":true,"cache_tier":"memory","result":<RX>}`},
		{"draining", "/jobs", jobY, 503, "", `{"error":"server draining"}`},
		{"replay: draining", "/corpus/replay", "", 503, "", `{"error":"replay interrupted: server draining"}`},
	})
	wantCounters(t, ts, submissionCounters{Submitted: 8, HitsMem: 4, Misses: 4})

	// A restart on the same directory: the disk tier (the corpus loader
	// drops the entry without a budget).
	_, ts = newTestServer(t, Config{Workers: 1, CacheDir: dir})
	env.run(t, ts, []contractStep{
		{"disk hit", "/jobs", jobX, 200, "",
			`{"fingerprint":"<FPX>","status":"done","cached":true,"cache_tier":"disk","result":<RX>}`},
		{"replay: disk hit, new job", "/corpus/replay", "", 200, "",
			`{"submitted":[{"fingerprint":"<FPE>","status":"done","cached":true,"cache_tier":"disk","result":<RE>},` +
				`{"job_id":"j1","fingerprint":"<FPE2>","status":"queued"}]}`},
	})
	wantCounters(t, ts, submissionCounters{Submitted: 3, HitsDisk: 2, Misses: 1})

	// One worker held by a search that outlasts the test and a queue of
	// one: single-flight, backpressure, and what is refused before a
	// spec exists.
	s, ts = newTestServer(t, Config{Workers: 1, QueueDepth: 1, MaxBodyBytes: 512})
	s.corpus.Add(entryE)
	env.run(t, ts, []contractStep{
		{"new job (blocker)", "/jobs", blocker, 202, "", `{"job_id":"j1","fingerprint":"<FPB>","status":"queued"}`},
	})
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		j := s.lookup("j1")
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the blocker never started: %q", state)
		}
	}
	env["<MALFORMED>"] = json.Unmarshal([]byte(`{`), &struct{}{}).Error()
	env.run(t, ts, []contractStep{
		{"replay: new job", "/corpus/replay", "", 200, "",
			`{"submitted":[{"job_id":"j2","fingerprint":"<FPE>","status":"queued"}]}`},
		{"replay: single-flight duplicate", "/corpus/replay", "", 200, "",
			`{"submitted":[{"job_id":"j2","fingerprint":"<FPE>","status":"queued","deduped":true,"progress":{}}]}`},
		{"single-flight duplicate", "/jobs", jobE, 202, "",
			`{"job_id":"j2","fingerprint":"<FPE>","status":"queued","deduped":true,"progress":{}}`},
		{"queue full", "/jobs", jobY, 429, "2", `{"error":"queue full"}`},
		{"malformed JSON", "/jobs", `{`, 400, "", `{"error":"decoding spec: <MALFORMED>"}`},
		{"bad spec", "/jobs", `{"kind":"nope"}`, 400, "", `{"error":"jobspec: exactly one payload must be set (got 0)"}`},
		{"oversize body", "/jobs", `{"kind":"mc","mc":{"preset":"` + strings.Repeat("x", 512) + `"}}`, 413, "",
			`{"error":"body over limit"}`},
	})
	s.corpus.Add(entryE2)
	env.run(t, ts, []contractStep{
		{"replay: queue full", "/corpus/replay", "", 429, "", `{"error":"replay interrupted: queue full"}`},
	})
	wantCounters(t, ts, submissionCounters{Submitted: 7, Dedup: 3, Misses: 4, QueueRejected: 2})
	// Drain with no patience: the blocker and the queued job are canceled.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	s.Close(ctx)

	// The rate limit guards both endpoints from one bucket.
	_, ts = newTestServer(t, Config{Workers: 1, RatePerSec: 0.001, RateBurst: 1})
	env.run(t, ts, []contractStep{
		{"replay: empty corpus", "/corpus/replay", "", 200, "", `{"submitted":[]}`},
		{"rate limited", "/jobs", jobX, 429, "1", `{"error":"rate limit exceeded"}`},
		{"replay: rate limited", "/corpus/replay", "", 429, "1", `{"error":"rate limit exceeded"}`},
	})
	wantCounters(t, ts, submissionCounters{RateLimited: 2})
}
