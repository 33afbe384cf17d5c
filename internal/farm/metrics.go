package farm

import (
	"sync/atomic"
	"time"
)

// counters is the server's hot-path instrumentation: everything the
// request and worker paths touch is an atomic, so metrics never contend
// with job execution.
type counters struct {
	submitted      atomic.Uint64
	completed      atomic.Uint64
	failed         atomic.Uint64
	canceled       atomic.Uint64
	dedupHits      atomic.Uint64
	cacheHitMem    atomic.Uint64
	cacheHitDisk   atomic.Uint64
	cacheMiss      atomic.Uint64
	cachePutErrors atomic.Uint64
	rateLimited    atomic.Uint64
	queueRejected  atomic.Uint64

	statesExplored  atomic.Uint64
	eventsSimulated atomic.Uint64
	busyNS          atomic.Int64
	busyWorkers     atomic.Int64

	mcResumed atomic.Uint64
}

// Metrics is the /metrics snapshot.
type Metrics struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Jobs by lifecycle.
	JobsSubmitted uint64         `json:"jobs_submitted"`
	JobsCompleted uint64         `json:"jobs_completed"`
	JobsFailed    uint64         `json:"jobs_failed"`
	JobsCanceled  uint64         `json:"jobs_canceled"`
	JobsByState   map[string]int `json:"jobs_by_state"`

	// Cache effectiveness: the farm's scaling lever.
	CacheHitsMemory uint64  `json:"cache_hits_memory"`
	CacheHitsDisk   uint64  `json:"cache_hits_disk"`
	CacheMisses     uint64  `json:"cache_misses"`
	CacheHitRatio   float64 `json:"cache_hit_ratio"`
	DedupHits       uint64  `json:"dedup_hits"`
	CacheMemEntries int     `json:"cache_mem_entries"`
	CacheDiskItems  int     `json:"cache_disk_entries"`
	// Disk-tier footprint, and the result writes it failed (each one
	// served its client but will re-run on its next miss).
	CacheDiskBytes int64  `json:"cache_disk_bytes"`
	CachePutErrors uint64 `json:"cache_put_errors"`

	// Queue and pool pressure.
	QueueDepth        int     `json:"queue_depth"`
	QueueCap          int     `json:"queue_cap"`
	Workers           int     `json:"workers"`
	BusyWorkers       int     `json:"busy_workers"`
	WorkerUtilization float64 `json:"worker_utilization"`
	RateLimited       uint64  `json:"rate_limited"`
	QueueRejected     uint64  `json:"queue_rejected"`

	// Aggregate engine throughput across all executed jobs.
	StatesExplored  uint64  `json:"states_explored"`
	EventsSimulated uint64  `json:"events_simulated"`
	StatesPerSec    float64 `json:"states_per_sec"`

	// Checkpoint/resume activity.
	MCJobsResumed uint64 `json:"mc_jobs_resumed"`

	CorpusSize int `json:"corpus_size"`
}

// snapshot assembles the exported view; jobsByState and queue/pool
// gauges come from the server, which owns that state.
func (c *counters) snapshot(start time.Time) Metrics {
	hits := c.cacheHitMem.Load() + c.cacheHitDisk.Load()
	lookups := hits + c.cacheMiss.Load()
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	statesPerSec := 0.0
	if busy := c.busyNS.Load(); busy > 0 {
		statesPerSec = float64(c.statesExplored.Load()) / (float64(busy) / 1e9)
	}
	return Metrics{
		UptimeSeconds:   time.Since(start).Seconds(),
		JobsSubmitted:   c.submitted.Load(),
		JobsCompleted:   c.completed.Load(),
		JobsFailed:      c.failed.Load(),
		JobsCanceled:    c.canceled.Load(),
		CacheHitsMemory: c.cacheHitMem.Load(),
		CacheHitsDisk:   c.cacheHitDisk.Load(),
		CacheMisses:     c.cacheMiss.Load(),
		CachePutErrors:  c.cachePutErrors.Load(),
		CacheHitRatio:   ratio,
		DedupHits:       c.dedupHits.Load(),
		RateLimited:     c.rateLimited.Load(),
		QueueRejected:   c.queueRejected.Load(),
		StatesExplored:  c.statesExplored.Load(),
		EventsSimulated: c.eventsSimulated.Load(),
		StatesPerSec:    statesPerSec,
		MCJobsResumed:   c.mcResumed.Load(),
	}
}
