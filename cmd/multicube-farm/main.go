// Command multicube-farm is the simulation-job farm: `serve` runs the
// fingerprint-cached HTTP job server over the repo's engines (timed
// simulator, model checker, litmus harness, swarm fuzzer), and `load`
// is the companion load generator that hammers a farm with a
// configurable duplicate ratio and reports throughput and latency
// percentiles.
//
//	multicube-farm serve -listen :8344 -cache-dir /var/lib/multicube-farm
//	multicube-farm load -addr http://localhost:8344 -duration 10s -dup 0.9
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"multicube/internal/farm"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serveMain(os.Args[2:])
	case "load":
		err = loadMain(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "multicube-farm: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "multicube-farm:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  multicube-farm serve [flags]   run the job server
  multicube-farm load  [flags]   run the load generator against a server

Run "multicube-farm <command> -h" for per-command flags.
`)
}

// serveConfig parses the serve command's flags into the server's
// configuration, the listen address and the drain budget.
func serveConfig(args []string) (cfg farm.Config, listen string, drain time.Duration) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&listen, "listen", ":8344", "address to listen on")
	fs.IntVar(&cfg.Workers, "workers", 4, "job worker pool size")
	fs.IntVar(&cfg.QueueDepth, "queue", 64, "max queued jobs before 429 backpressure")
	fs.StringVar(&cfg.CacheDir, "cache-dir", "", "on-disk result cache directory (empty: memory only)")
	fs.IntVar(&cfg.CacheMemEntries, "cache-mem", 256, "in-memory cache entries")
	fs.DurationVar(&cfg.JobTimeout, "job-timeout", 2*time.Minute, "per-job execution ceiling")
	fs.Float64Var(&cfg.RatePerSec, "rate", 50, "per-client requests/sec (0 disables limiting)")
	fs.IntVar(&cfg.RateBurst, "burst", 100, "per-client burst allowance")
	fs.DurationVar(&drain, "drain", 30*time.Second, "graceful shutdown drain budget")
	fs.Parse(args)
	if cfg.RatePerSec == 0 {
		// The library's zero value means "default"; off is negative.
		cfg.RatePerSec = -1
	}
	return cfg, listen, drain
}

func serveMain(args []string) error {
	cfg, listen, drain := serveConfig(args)
	srv, err := farm.New(cfg)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: listen, Handler: srv.Handler()}

	// SIGTERM/SIGINT: stop accepting, drain the queue, then exit. Jobs
	// still running when the drain budget expires are canceled via their
	// contexts and marked, not lost.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "multicube-farm: serving on %s (%d workers, queue %d)\n", listen, cfg.Workers, cfg.QueueDepth)

	select {
	case err := <-serveErr:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "multicube-farm: %v: draining (budget %s)\n", sig, drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	closeErr := srv.Close(ctx)
	hs.Shutdown(ctx)
	if closeErr != nil {
		return fmt.Errorf("drain: %w", closeErr)
	}
	fmt.Fprintln(os.Stderr, "multicube-farm: drained cleanly")
	return nil
}

// loadStats accumulates per-request observations across client
// goroutines.
type loadStats struct {
	mu        sync.Mutex
	latencies []time.Duration

	requests atomic.Uint64
	cached   atomic.Uint64
	deduped  atomic.Uint64
	queued   atomic.Uint64
	rejected atomic.Uint64 // 429s: rate limit or queue full
	errors   atomic.Uint64
}

func (st *loadStats) observe(d time.Duration) {
	st.mu.Lock()
	st.latencies = append(st.latencies, d)
	st.mu.Unlock()
}

func (st *loadStats) percentile(p float64) time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.latencies) == 0 {
		return 0
	}
	sort.Slice(st.latencies, func(i, j int) bool { return st.latencies[i] < st.latencies[j] })
	idx := int(p * float64(len(st.latencies)-1))
	return st.latencies[idx]
}

// loadReport is the machine-readable outcome (-json).
type loadReport struct {
	Date          string  `json:"date"`
	DurationSec   float64 `json:"duration_sec"`
	Concurrency   int     `json:"concurrency"`
	DupRatio      float64 `json:"dup_ratio"`
	Requests      uint64  `json:"requests"`
	Throughput    float64 `json:"throughput_req_per_sec"`
	P50MS         float64 `json:"p50_ms"`
	P90MS         float64 `json:"p90_ms"`
	P99MS         float64 `json:"p99_ms"`
	CacheHits     uint64  `json:"cache_hits"`
	DedupHits     uint64  `json:"dedup_hits"`
	JobsQueued    uint64  `json:"jobs_queued"`
	Rejected      uint64  `json:"rejected_429"`
	Errors        uint64  `json:"errors"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	JobLosses     uint64  `json:"job_losses"`
}

func loadMain(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8344", "farm base URL")
	duration := fs.Duration("duration", 10*time.Second, "load duration")
	conc := fs.Int("c", 8, "concurrent clients")
	dup := fs.Float64("dup", 0.9, "probability a request reuses an already-sent spec")
	uniq := fs.Int("uniq", 64, "unique spec pool size")
	seed := fs.Int64("seed", 1, "client RNG seed")
	jsonOut := fs.Bool("json", false, "emit the report as JSON on stdout")
	fs.Parse(args)

	// The unique pool is cheap swarm singletons: each explores a couple
	// of small scenarios, so a miss costs milliseconds and the farm's
	// caching — not raw engine speed — dominates what we measure.
	specs := make([][]byte, *uniq)
	for i := range specs {
		specs[i] = []byte(fmt.Sprintf(
			`{"kind":"swarm","swarm":{"base_seed":%d,"count":1,"machines":"multicube","max_states":1500}}`, 1000+i))
	}

	client := &http.Client{Timeout: 30 * time.Second}
	var st loadStats
	jobIDs := make(chan string, 1<<16)
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			sent := []int{}
			for ctx.Err() == nil {
				var idx int
				if len(sent) > 0 && rng.Float64() < *dup {
					idx = sent[rng.Intn(len(sent))]
				} else {
					idx = rng.Intn(len(specs))
					sent = append(sent, idx)
				}
				t0 := time.Now()
				resp, err := client.Post(*addr+"/jobs", "application/json", bytes.NewReader(specs[idx]))
				lat := time.Since(t0)
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					st.errors.Add(1)
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				st.requests.Add(1)
				st.observe(lat)
				switch resp.StatusCode {
				case http.StatusOK, http.StatusAccepted:
					var r struct {
						JobID   string `json:"job_id"`
						Cached  bool   `json:"cached"`
						Deduped bool   `json:"deduped"`
					}
					if json.Unmarshal(body, &r) != nil {
						st.errors.Add(1)
						continue
					}
					switch {
					case r.Cached:
						st.cached.Add(1)
					case r.Deduped:
						st.deduped.Add(1)
					default:
						st.queued.Add(1)
						select {
						case jobIDs <- r.JobID:
						default:
						}
					}
				case http.StatusTooManyRequests:
					st.rejected.Add(1)
					time.Sleep(50 * time.Millisecond)
				default:
					st.errors.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(jobIDs)

	// Loss audit: every job the farm accepted must reach a terminal
	// state. A job that never finishes is a loss — the acceptance bar
	// is zero.
	var losses uint64
	deadline := time.Now().Add(60 * time.Second)
	for id := range jobIDs {
		for {
			resp, err := client.Get(*addr + "/jobs/" + id)
			if err != nil {
				losses++
				break
			}
			var r struct {
				Status string `json:"status"`
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			json.Unmarshal(body, &r)
			if r.Status == farm.StateDone || r.Status == farm.StateFailed || r.Status == farm.StateCanceled {
				break
			}
			if time.Now().After(deadline) {
				losses++
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	reqs := st.requests.Load()
	hits := st.cached.Load() + st.deduped.Load()
	hitRatio := 0.0
	if reqs > 0 {
		hitRatio = float64(hits) / float64(reqs)
	}
	rep := loadReport{
		Date:          time.Now().Format("2006-01-02"),
		DurationSec:   elapsed.Seconds(),
		Concurrency:   *conc,
		DupRatio:      *dup,
		Requests:      reqs,
		Throughput:    float64(reqs) / elapsed.Seconds(),
		P50MS:         float64(st.percentile(0.50)) / 1e6,
		P90MS:         float64(st.percentile(0.90)) / 1e6,
		P99MS:         float64(st.percentile(0.99)) / 1e6,
		CacheHits:     st.cached.Load(),
		DedupHits:     st.deduped.Load(),
		JobsQueued:    st.queued.Load(),
		Rejected:      st.rejected.Load(),
		Errors:        st.errors.Load(),
		CacheHitRatio: hitRatio,
		JobLosses:     losses,
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		enc.Encode(rep)
	} else {
		fmt.Printf("requests   %d in %.1fs  (%.1f req/s)\n", rep.Requests, rep.DurationSec, rep.Throughput)
		fmt.Printf("latency    p50 %.2fms  p90 %.2fms  p99 %.2fms\n", rep.P50MS, rep.P90MS, rep.P99MS)
		fmt.Printf("cache      %d hits, %d dedup, %d executed  (hit ratio %.2f)\n",
			rep.CacheHits, rep.DedupHits, rep.JobsQueued, rep.CacheHitRatio)
		fmt.Printf("pressure   %d rejected (429), %d errors, %d losses\n", rep.Rejected, rep.Errors, rep.JobLosses)
	}
	if losses > 0 {
		return fmt.Errorf("%d jobs lost", losses)
	}
	return nil
}
