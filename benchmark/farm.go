package main

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
	"sort"
	"sync"
	"time"

	"multicube/internal/farm"
	"multicube/internal/farm/jobspec"
	"multicube/internal/mc"
	"multicube/internal/stats"
	"multicube/internal/workload"
)

// farmWorkload is the job server end to end: an in-process farm behind a
// real HTTP listener, and closed-loop clients that each replay a seeded
// schedule of submissions over a private pool of small swarm jobs. The
// first submission of a spec is a miss (execute, encode, store with
// fsync) whose result the client follows on the job's stream; every
// later one is a hit from the memory or the disk tier.
type farmWorkload struct {
	clients   int // client goroutines, one connection each
	perClient int // submissions per client per pass
	pool      int // distinct specs per client
	maxStates int

	scratch   string
	specs     [][][]byte // [client][spec] request bodies
	schedules [][]int    // [client] spec index per submission
}

const (
	farmMemEntries = 8
	// farmPoolSeed is the swarm base seed of the first spec of the pool.
	// The pool is the same for every benchmark seed: what a swarm seed
	// costs to explore ranges from one state to the whole budget, and a
	// pool redrawn per seed made a pass's work differ by ±30 %. The seed
	// draws the submission schedules instead.
	farmPoolSeed = 1000
)

func (w *farmWorkload) setup(seed uint64, scratch string) error {
	w.scratch = scratch
	w.specs = make([][][]byte, w.clients)
	w.schedules = make([][]int, w.clients)
	for c := range w.specs {
		for i := 0; i < w.pool; i++ {
			body := fmt.Sprintf(`{"kind":"swarm","swarm":{"base_seed":%d,"count":1,"machines":"multicube","max_states":%d}}`,
				farmPoolSeed+c*w.pool+i, w.maxStates)
			w.specs[c] = append(w.specs[c], []byte(body))
		}
		rng := workload.NewRand(seed ^ (uint64(c)+1)*0x9e3779b97f4a7c15)
		for i := 0; i < w.perClient; i++ {
			w.schedules[c] = append(w.schedules[c], rng.Intn(w.pool))
		}
		// Every spec must be submitted at least once, so that a pass
		// always executes the whole pool: a spec the draws missed takes
		// the place of the latest repeat of another.
		count := make([]int, w.pool)
		for _, idx := range w.schedules[c] {
			count[idx]++
		}
		for i := 0; i < w.pool; i++ {
			for pos := w.perClient - 1; count[i] == 0 && pos >= 0; pos-- {
				if old := w.schedules[c][pos]; count[old] > 1 {
					count[old]--
					count[i]++
					w.schedules[c][pos] = i
				}
			}
			if count[i] == 0 {
				return fmt.Errorf("%d submissions cannot cover a pool of %d specs", w.perClient, w.pool)
			}
		}
	}
	if p := w.pass(nil, 0, 0); p.failed > 0 {
		return fmt.Errorf("warm-up pass: %d of %d requests failed: %v", p.failed, p.attempted, p.errs)
	}
	return nil
}

// submitReply is the part of the server's job status the client reads.
type submitReply struct {
	JobID  string          `json:"job_id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// farmClient is one closed-loop client's tally of a pass.
type farmClient struct {
	hitMS, missMS []float64
	failed        int
	errs          []string
}

func (c *farmClient) failf(format string, args ...any) {
	c.failed++
	if len(c.errs) < maxReportedErrors {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (w *farmWorkload) pass(tr *tracer, parent, _ int) passResult {
	total := w.clients * w.perClient
	res := passResult{attempted: total, ops: float64(total)}
	sp := tr.begin(parent, "farm.pass")
	defer tr.end(sp)
	dir, err := tempDir(w.scratch, "farm-cache-")
	if err != nil {
		res.failed = total
		res.errs = append(res.errs, fmt.Sprintf("cache dir: %v", err))
		return res
	}
	defer os.RemoveAll(dir)

	s := tr.begin(sp, "farm.New+listen")
	startSrv := time.Now()
	// RatePerSec must be negative to switch the limiter off: Config maps
	// 0 to the 50/s default (see README.md, "RatePerSec: 0").
	srv, err := farm.New(farm.Config{Workers: 2, CacheDir: dir, CacheMemEntries: farmMemEntries, RatePerSec: -1})
	if err != nil {
		res.failed = total
		res.errs = append(res.errs, fmt.Sprintf("farm.New: %v", err))
		return res
	}
	ts := httptest.NewServer(srv.Handler())
	serverStartMS := time.Since(startSrv).Seconds() * 1e3
	tr.end(s)

	clients := make([]*farmClient, w.clients)
	var wg sync.WaitGroup
	load := tr.begin(sp, "farm.load")
	start := time.Now()
	for c := range clients {
		clients[c] = &farmClient{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.runClient(tr, load, ts.URL, c, clients[c])
		}(c)
	}
	wg.Wait()
	res.seconds = time.Since(start).Seconds()
	tr.end(load)

	m, err := fetchMetrics(ts.Client(), ts.URL)
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	closeErr := srv.Close(ctx)
	cancel()

	var hit, miss []float64
	for _, c := range clients {
		res.failed += c.failed
		res.errs = append(res.errs, c.errs...)
		hit = append(hit, c.hitMS...)
		miss = append(miss, c.missMS...)
	}
	unique := w.clients * w.pool
	switch {
	case err != nil:
		res.failf("GET /metrics: %v", err)
	case closeErr != nil:
		res.failf("farm.Close: %v", closeErr)
	case m.CacheMisses != uint64(unique) || m.RateLimited != 0 || m.QueueRejected != 0 || m.JobsCompleted != uint64(unique):
		res.failf("/metrics: %d misses, %d completed, %d rate-limited, %d queue-rejected; want %d, %d, 0, 0",
			m.CacheMisses, m.JobsCompleted, m.RateLimited, m.QueueRejected, unique, unique)
	}
	if res.failed > total {
		res.failed = total
	}
	res.exact = map[string]float64{
		"farm.misses":     float64(m.CacheMisses),
		"farm.dedup_hits": float64(m.DedupHits),
		"farm.rejected":   float64(m.RateLimited + m.QueueRejected),
	}
	res.counts = map[string]float64{
		"farm.hits_mem":  float64(m.CacheHitsMemory),
		"farm.hits_disk": float64(m.CacheHitsDisk),
	}
	all := append(append([]float64(nil), hit...), miss...)
	sort.Float64s(all)
	res.host = map[string]float64{
		"p50_ms":               percentile(all, 0.50),
		"p99_ms":               percentile(all, 0.99),
		"farm.hit_ms":          stats.Mean(hit),
		"farm.miss_ms":         stats.Mean(miss),
		"farm.server_start_ms": serverStartMS,
	}
	return res
}

// runClient replays client c's schedule over one connection. It checks
// that every submission is answered 200 or 202, that every accepted job
// reaches done, and that a repeat returns the bytes of the first result.
func (w *farmWorkload) runClient(tr *tracer, parent int, base string, c int, tally *farmClient) {
	hc := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
	defer hc.CloseIdleConnections()
	firstResult := make([][]byte, w.pool)
	for _, idx := range w.schedules[c] {
		req := tr.begin(parent, "farm.request")
		start := time.Now()
		post := tr.begin(req, "POST /jobs")
		reply, code, err := submit(hc, base, w.specs[c][idx])
		tr.end(post)
		miss, ok := false, false
		switch {
		case err != nil:
			tally.failf("client %d: POST /jobs: %v", c, err)
		case code == http.StatusOK && reply.Cached:
			ok = true
		case code == http.StatusAccepted && reply.JobID != "":
			miss = true
			st := tr.begin(req, "GET /jobs/{id}/stream")
			reply, err = followStream(hc, base, reply.JobID)
			tr.end(st)
			if err != nil {
				tally.failf("client %d: stream: %v", c, err)
			} else if reply.Status != farm.StateDone {
				tally.failf("client %d: job ended %q, want %q", c, reply.Status, farm.StateDone)
			} else {
				ok = true
			}
		default:
			tally.failf("client %d: POST /jobs answered %d (cached=%v job=%q)", c, code, reply.Cached, reply.JobID)
		}
		ms := time.Since(start).Seconds() * 1e3
		tr.end(req)
		if miss {
			tally.missMS = append(tally.missMS, ms)
		} else {
			tally.hitMS = append(tally.hitMS, ms)
		}
		if !ok {
			continue
		}
		// The server indents a cached reply and streams a compact one;
		// the result is the same bytes once whitespace is removed.
		var got bytes.Buffer
		if err := json.Compact(&got, reply.Result); err != nil || got.Len() == 0 {
			tally.failf("client %d: spec %d: empty or malformed result", c, idx)
		} else if firstResult[idx] == nil {
			firstResult[idx] = got.Bytes()
		} else if !bytes.Equal(firstResult[idx], got.Bytes()) {
			tally.failf("client %d: spec %d: repeat result differs from the first", c, idx)
		}
	}
}

func submit(hc *http.Client, base string, body []byte) (submitReply, int, error) {
	var reply submitReply
	resp, err := hc.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply, resp.StatusCode, err
	}
	if err := json.Unmarshal(raw, &reply); err != nil {
		return reply, resp.StatusCode, fmt.Errorf("decoding %q: %w", raw, err)
	}
	return reply, resp.StatusCode, nil
}

// followStream reads the job's NDJSON stream to its result frame.
func followStream(hc *http.Client, base, id string) (submitReply, error) {
	resp, err := hc.Get(base + "/jobs/" + id + "/stream")
	if err != nil {
		return submitReply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return submitReply{}, fmt.Errorf("stream answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var frame struct {
			Type string `json:"type"`
			submitReply
		}
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			return submitReply{}, fmt.Errorf("decoding frame: %w", err)
		}
		if frame.Type == "result" {
			return frame.submitReply, nil
		}
	}
	if err := sc.Err(); err != nil {
		return submitReply{}, err
	}
	return submitReply{}, fmt.Errorf("stream of job %s ended without a result frame", id)
}

func fetchMetrics(hc *http.Client, base string) (farm.Metrics, error) {
	var m farm.Metrics
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func (w *farmWorkload) probes(p *prober, last passResult) map[string]float64 {
	out := map[string]float64{}
	var specs []*jobspec.Spec
	for _, pool := range w.specs {
		for _, body := range pool {
			var s jobspec.Spec
			if err := json.Unmarshal(body, &s); err != nil {
				p.failf("decoding spec: %v", err)
				return out
			}
			specs = append(specs, &s)
		}
	}

	fps := make([]string, len(specs))
	out["jobspec.canon_us"] = 1e6 * p.nominal("jobspec.canon", func() int {
		n := 0
		for i, iters := 0, p.n(200); i < iters; i++ {
			for j, s := range specs {
				norm, err := s.Normalize()
				if err == nil {
					_, err = norm.Canonical()
				}
				if err == nil {
					fps[j], err = norm.Fingerprint()
				}
				if err != nil {
					p.failf("canonicalising spec: %v", err)
					return 0
				}
				n++
			}
		}
		return n
	})

	// The pool's scenarios explored outside the farm: what a miss costs
	// before the queue, HTTP, encode and store are added.
	results := make([]*jobspec.Result, len(specs))
	out["farm.exec_ms"] = 1e3 * p.nominal("farm.exec", func() int {
		for j, s := range specs {
			r, err := mc.Explore(mc.SwarmScenario(s.Swarm.BaseSeed, false), mc.Options{MaxStates: w.maxStates})
			if err != nil {
				p.failf("exploring swarm seed %d: %v", s.Swarm.BaseSeed, err)
				return 0
			}
			results[j] = &jobspec.Result{
				Kind: jobspec.KindSwarm, Fingerprint: fps[j], Verdict: "ok",
				Swarm: &jobspec.SwarmResult{Cases: 1, StatesTotal: r.States},
			}
		}
		return len(specs)
	})

	encoded := make([][]byte, len(results))
	out["jobspec.encode_us"] = 1e6 * p.nominal("jobspec.encode", func() int {
		n := 0
		for i, iters := 0, p.n(200); i < iters; i++ {
			for j, r := range results {
				b, err := r.Encode()
				if err != nil {
					p.failf("Result.Encode: %v", err)
					return 0
				}
				encoded[j] = b
				n++
			}
		}
		return n
	})

	dir, err := tempDir(p.scratch, "cache-probe-")
	if err != nil {
		p.failf("cache dir: %v", err)
		return out
	}
	defer os.RemoveAll(dir)
	cache, err := farm.NewCache(dir, len(specs))
	if err != nil {
		p.failf("farm.NewCache: %v", err)
		return out
	}
	out["farm.cache_put_us"] = 1e6 * p.nominal("farm.cache_put", func() int {
		n := 0
		for i, iters := 0, p.n(5); i < iters; i++ {
			for j := range fps {
				if err := cache.Put(fps[j], encoded[j]); err != nil {
					p.failf("Cache.Put: %v", err)
					return 0
				}
				n++
			}
		}
		return n
	})
	get := func(c *farm.Cache, tier string, iters int) int {
		n := 0
		for i := 0; i < iters; i++ {
			for j := range fps {
				if _, got, ok := c.Get(fps[j]); !ok || got != tier {
					p.failf("Cache.Get: ok=%v tier=%q, want a %s hit", ok, got, tier)
					return 0
				}
				n++
			}
		}
		return n
	}
	out["farm.cache_get_mem_us"] = 1e6 * p.nominal("farm.cache_get_mem", func() int { return get(cache, farm.TierMem, p.n(2000)) })
	// A one-entry memory tier over the same directory: cycling through
	// the pool makes every lookup a validated read from disk.
	cold, err := farm.NewCache(dir, 1)
	if err != nil {
		p.failf("farm.NewCache: %v", err)
		return out
	}
	out["farm.cache_get_disk_us"] = 1e6 * p.nominal("farm.cache_get_disk", func() int { return get(cold, farm.TierDisk, p.n(50)) })
	return out
}
