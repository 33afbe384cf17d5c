package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"multicube/internal/farm/jobspec"
)

// Config parameterizes a Server. The zero value is a sensible
// single-machine deployment.
type Config struct {
	// Workers is the job worker pool size; default 4.
	Workers int
	// QueueDepth bounds queued (not yet running) jobs; past it,
	// submissions get 429 + Retry-After. Default 64.
	QueueDepth int
	// CacheDir is the on-disk result store; "" keeps results (and the
	// swarm corpus) in memory only. The corpus lives under
	// <CacheDir>/corpus. With a CacheDir, mc jobs are also resumable:
	// each checkpoints its search, at the explorer's default cadence,
	// under <CacheDir>/mc-checkpoints/<fp-prefix>/<fingerprint>, and a
	// resubmission of a killed or timed-out job (which is never cached)
	// resumes from the last checkpoint instead of starting over.
	// Checkpoints of completed jobs are deleted — the cached result
	// supersedes them.
	CacheDir string
	// CacheMemEntries bounds the in-memory result tier; default 256.
	CacheMemEntries int
	// JobTimeout is the per-job execution ceiling; default 2m.
	JobTimeout time.Duration
	// RatePerSec and RateBurst are the per-client token bucket: a rate
	// < 0 disables limiting, 0 means the default of 50/s (burst: 100).
	RatePerSec float64
	RateBurst  int
	// MaxBodyBytes bounds a submission body; default 1MiB.
	MaxBodyBytes int64
}

func (c *Config) fillDefaults() {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheMemEntries == 0 {
		c.CacheMemEntries = 256
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.RatePerSec == 0 {
		c.RatePerSec = 50
	}
	if c.RateBurst == 0 {
		c.RateBurst = 100
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
}

// Job lifecycle states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// job is one tracked execution.
type job struct {
	id   string
	fp   string
	spec *jobspec.Spec

	mu      sync.Mutex
	state   string
	prog    Progress
	result  []byte // canonical result bytes, set before done closes
	verdict string
	errMsg  string
	lastObs uint64 // last states+events total folded into server counters
	done    chan struct{}
}

func (j *job) snapshotLocked() jobStatus {
	// Copy the progress struct: the worker keeps mutating j.prog, and
	// encoders read the snapshot after the job lock is released.
	prog := j.prog
	st := jobStatus{
		JobID:       j.id,
		Fingerprint: j.fp,
		Status:      j.state,
		Verdict:     j.verdict,
		Error:       j.errMsg,
		Progress:    &prog,
	}
	if j.result != nil {
		st.Result = json.RawMessage(j.result)
	}
	return st
}

// jobStatus is the wire form of a job (submission responses, status
// polls, stream frames).
type jobStatus struct {
	JobID       string          `json:"job_id,omitempty"`
	Fingerprint string          `json:"fingerprint"`
	Status      string          `json:"status"`
	Cached      bool            `json:"cached,omitempty"`
	CacheTier   string          `json:"cache_tier,omitempty"`
	Deduped     bool            `json:"deduped,omitempty"`
	Verdict     string          `json:"verdict,omitempty"`
	Error       string          `json:"error,omitempty"`
	Progress    *Progress       `json:"progress,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// Server is the farm: pool, queue, cache, corpus, metrics.
type Server struct {
	cfg     Config
	cache   *Cache
	corpus  *Corpus
	limiter *rateLimiter
	ctr     counters
	start   time.Time
	exec    executor

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	closed bool
	jobs   map[string]*job
	byFP   map[string]*job // queued/running jobs, the single-flight index
	queue  chan *job
	nextID uint64

	wg sync.WaitGroup
}

// New builds and starts a server (its worker pool runs immediately;
// attach Handler to an http.Server to serve it).
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	cache, err := NewCache(cfg.CacheDir, cfg.CacheMemEntries)
	if err != nil {
		return nil, err
	}
	corpusDir, checkpointRoot := "", ""
	if cfg.CacheDir != "" {
		corpusDir = filepath.Join(cfg.CacheDir, "corpus")
		checkpointRoot = filepath.Join(cfg.CacheDir, "mc-checkpoints")
	}
	corpus, err := OpenCorpus(corpusDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      cache,
		corpus:     corpus,
		limiter:    newRateLimiter(cfg.RatePerSec, cfg.RateBurst),
		start:      time.Now(),
		exec:       executor{checkpointRoot: checkpointRoot},
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		byFP:       make(map[string]*job),
		queue:      make(chan *job, cfg.QueueDepth),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Close drains the farm: no new submissions are accepted, every job
// already accepted runs to completion (or is promptly canceled once ctx
// expires), and the worker pool exits. Safe to call once.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("farm: already closed")
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		// Deadline passed: cancel in-flight jobs (they return within one
		// bounded run and are marked canceled, not lost) and wait.
		s.baseCancel()
		<-drained
		return ctx.Err()
	}
}

// worker drains the queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	s.ctr.busyWorkers.Add(1)
	defer s.ctr.busyWorkers.Add(-1)
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()

	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()
	begin := time.Now()
	res := s.exec.run(ctx, j.spec, j.fp, func(p Progress) {
		j.mu.Lock()
		j.prog = p
		// Fold throughput deltas into the farm-wide counters: states and
		// events are cumulative per job, so publish only the increment.
		obs := uint64(p.States) + p.Events
		if obs > j.lastObs {
			d := obs - j.lastObs
			j.lastObs = obs
			if p.States > 0 {
				s.ctr.statesExplored.Add(d)
			} else {
				s.ctr.eventsSimulated.Add(d)
			}
		}
		j.mu.Unlock()
	})
	s.ctr.busyNS.Add(int64(time.Since(begin)))

	if res.MC != nil && res.MC.Resumed {
		s.ctr.mcResumed.Add(1)
	}

	// Persist swarm catches before publishing the result, so a client
	// that sees the violation can immediately replay the corpus.
	if res.Swarm != nil {
		for _, v := range res.Swarm.Violations {
			s.corpus.Add(CorpusEntry{
				Seed: v.Seed, SingleBus: v.SingleBus,
				Kind: v.Kind, Msg: v.Msg,
				MaxStates: j.spec.Swarm.MaxStates,
				FoundBy:   j.fp,
			})
		}
	}

	final := StateDone
	switch res.Verdict {
	case "canceled":
		final = StateCanceled
		s.ctr.canceled.Add(1)
	case "error":
		final = StateFailed
		s.ctr.failed.Add(1)
	default:
		s.ctr.completed.Add(1)
	}

	var data []byte
	if final == StateDone {
		b, err := res.Encode()
		if err != nil {
			final = StateFailed
			res.Verdict = "error"
			res.Error = fmt.Sprintf("farm: encoding result: %v", err)
		} else {
			data = b
			// Only completed results are cacheable: canceled and failed
			// runs are not a function of the spec alone. A failed write
			// costs only a later re-run, so the client still gets its
			// result; /metrics counts the failure.
			if s.cache.Put(j.fp, data) != nil {
				s.ctr.cachePutErrors.Add(1)
			}
		}
	}

	s.mu.Lock()
	if s.byFP[j.fp] == j {
		delete(s.byFP, j.fp)
	}
	s.mu.Unlock()

	j.mu.Lock()
	j.state = final
	j.verdict = res.Verdict
	j.errMsg = res.Error
	if data != nil {
		j.result = data
	} else if b, err := res.Encode(); err == nil {
		// Non-cacheable outcomes still return their payload to pollers.
		j.result = b
	}
	j.mu.Unlock()
	close(j.done)
}

// Handler returns the farm's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /corpus", s.handleCorpus)
	mux.HandleFunc("POST /corpus/replay", s.handleCorpusReplay)
	return mux
}

func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.limiter.allow(clientKey(r), time.Now()) {
		s.ctr.rateLimited.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: "rate limit exceeded"})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "reading body: " + err.Error()})
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: "body over limit"})
		return
	}
	var raw jobspec.Spec
	if err := json.Unmarshal(body, &raw); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding spec: " + err.Error()})
		return
	}
	st, code := s.submitSpec(&raw)
	if code >= 400 {
		if code == http.StatusTooManyRequests {
			// Backpressure: the queue is full. The hint is scaled to how
			// long a queue drain plausibly takes.
			w.Header().Set("Retry-After", "2")
		}
		writeJSON(w, code, apiError{Error: st.Error})
		return
	}
	writeJSON(w, code, st)
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	j.mu.Lock()
	st := j.snapshotLocked()
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// streamFrame is one NDJSON line of a progress stream.
type streamFrame struct {
	Type string `json:"type"` // "progress" | "result"
	jobStatus
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	emitProgress := func() {
		j.mu.Lock()
		st := j.snapshotLocked()
		j.mu.Unlock()
		st.Result = nil
		enc.Encode(streamFrame{Type: "progress", jobStatus: st})
		if flusher != nil {
			flusher.Flush()
		}
	}
	emitProgress()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-j.done:
			j.mu.Lock()
			st := j.snapshotLocked()
			j.mu.Unlock()
			enc.Encode(streamFrame{Type: "result", jobStatus: st})
			if flusher != nil {
				flusher.Flush()
			}
			return
		case <-tick.C:
			emitProgress()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.ctr.snapshot(s.start)
	s.mu.Lock()
	m.JobsByState = make(map[string]int)
	for _, j := range s.jobs {
		j.mu.Lock()
		m.JobsByState[j.state]++
		j.mu.Unlock()
	}
	m.QueueDepth = len(s.queue)
	m.QueueCap = s.cfg.QueueDepth
	s.mu.Unlock()
	m.Workers = s.cfg.Workers
	m.BusyWorkers = int(s.ctr.busyWorkers.Load())
	if m.Workers > 0 {
		m.WorkerUtilization = float64(m.BusyWorkers) / float64(m.Workers)
	}
	m.CacheMemEntries, m.CacheDiskItems, m.CacheDiskBytes = s.cache.Stats()
	m.CorpusSize = s.corpus.Len()
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Entries []CorpusEntry `json:"entries"`
	}{Entries: s.corpus.Entries()})
}

// handleCorpusReplay resubmits every corpus entry as a single-seed
// swarm regression job through the normal submission path (dedup and
// cache apply: an already-verified regression is a cache hit).
func (s *Server) handleCorpusReplay(w http.ResponseWriter, r *http.Request) {
	if !s.limiter.allow(clientKey(r), time.Now()) {
		s.ctr.rateLimited.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: "rate limit exceeded"})
		return
	}
	specs := s.corpus.ReplaySpecs()
	out := struct {
		Submitted []jobStatus `json:"submitted"`
	}{Submitted: []jobStatus{}}
	for i := range specs {
		st, code := s.submitSpec(&specs[i])
		if code >= 500 || code == http.StatusTooManyRequests {
			writeJSON(w, code, apiError{Error: "replay interrupted: " + st.Error})
			return
		}
		out.Submitted = append(out.Submitted, st)
	}
	writeJSON(w, http.StatusOK, out)
}

// submitSpec is the one submission path, behind POST /jobs and the
// corpus replay alike: normalize, then dedup, cache, drain check and
// queue under the server lock. It returns the reply and its status
// code; at 400 and above only the reply's Error is set.
func (s *Server) submitSpec(raw *jobspec.Spec) (jobStatus, int) {
	spec, err := raw.Normalize()
	if err != nil {
		return jobStatus{Error: err.Error()}, http.StatusBadRequest
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return jobStatus{Error: err.Error()}, http.StatusBadRequest
	}
	s.ctr.submitted.Add(1)
	s.mu.Lock()
	// Single-flight: a queued or running job with this fingerprint
	// absorbs the duplicate — thousands of identical submissions cost
	// one execution.
	if inflight, ok := s.byFP[fp]; ok {
		s.mu.Unlock()
		s.ctr.dedupHits.Add(1)
		inflight.mu.Lock()
		st := inflight.snapshotLocked()
		inflight.mu.Unlock()
		st.Deduped = true
		st.Result = nil // attachers poll or stream; the body stays small
		return st, http.StatusAccepted
	}
	// Cache: a completed result under this fingerprint is served
	// instantly, byte-identical to the run that produced it.
	if data, tier, ok := s.cache.Get(fp); ok {
		s.mu.Unlock()
		if tier == TierMem {
			s.ctr.cacheHitMem.Add(1)
		} else {
			s.ctr.cacheHitDisk.Add(1)
		}
		return jobStatus{
			Fingerprint: fp, Status: StateDone, Cached: true, CacheTier: tier,
			Result: json.RawMessage(data),
		}, http.StatusOK
	}
	s.ctr.cacheMiss.Add(1)
	if s.closed {
		s.mu.Unlock()
		return jobStatus{Error: "server draining"}, http.StatusServiceUnavailable
	}
	s.nextID++
	j := &job{
		id:    fmt.Sprintf("j%d", s.nextID),
		fp:    fp,
		spec:  spec,
		state: StateQueued,
		done:  make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.ctr.queueRejected.Add(1)
		return jobStatus{Error: "queue full"}, http.StatusTooManyRequests
	}
	s.jobs[j.id] = j
	s.byFP[fp] = j
	s.mu.Unlock()
	return jobStatus{JobID: j.id, Fingerprint: fp, Status: StateQueued}, http.StatusAccepted
}
