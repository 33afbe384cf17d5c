// Package farm is the multicube simulation-job server: it accepts sim,
// mc, litmus, and swarm jobs as JSON (internal/farm/jobspec), fans them
// out across a bounded worker pool with per-job contexts, and — the
// scaling lever — caches every result under its canonical scenario
// fingerprint, so identical jobs from any number of clients cost one
// execution. The repo-wide determinism discipline (multicube-vet's
// fingerprint and no-wall-clock passes) is what makes the cache sound:
// a job's result is a pure function of its canonical spec, so the
// fingerprint really is an identity, not a heuristic.
//
// The package splits into the deterministic spec/result encoding
// (subpackage jobspec, vet-enforced) and this server runtime, which
// legitimately uses the wall clock and goroutines and is therefore
// deliberately NOT marked //multicube:deterministic. The disk tiers
// (result cache, corpus, job checkpoints) are durable state, so the
// package IS marked for multicube-vet's atomicwrite pass: writers go
// through internal/durable, deletes must name their retention rule.
//
//multicube:durable
package farm

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"multicube/internal/durable"
	"multicube/internal/farm/jobspec"
)

// Cache is the two-tier result store: an in-memory LRU over canonical
// result bytes in front of an optional on-disk store. Disk writes are
// atomic (temp file + rename into place), so a crash mid-write leaves
// either the old entry or none — never a torn one — and a restarted
// server recovers every completed result by fingerprint. The disk tier
// is unbounded: an entry is deleted only when it is corrupt, by a plain
// unlink (atomic on POSIX), so a concurrent Get either reads the full
// entry or misses and re-runs the job.
type Cache struct {
	dir       string // "" = memory-only
	maxMem    int
	mu        sync.Mutex
	lru       *list.List               // front = most recently used
	byFP      map[string]*list.Element // fingerprint → LRU element
	onDisk    int                      // entries recovered or written this process
	diskBytes int64                    // bytes currently stored on disk
}

type cacheEntry struct {
	fp   string
	data []byte
}

// Cache tiers reported by Get.
const (
	TierMem  = "memory"
	TierDisk = "disk"
)

// NewCache opens a cache holding up to maxMem results in memory
// (default 256) backed by dir ("" disables the disk tier). Existing
// entries under dir are counted — recovery is otherwise lazy, by
// fingerprint on first Get — and abandoned temp files from a previous
// crash are swept.
func NewCache(dir string, maxMem int) (*Cache, error) {
	if maxMem <= 0 {
		maxMem = 256
	}
	c := &Cache{dir: dir, maxMem: maxMem, lru: list.New(), byFP: make(map[string]*list.Element)}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("farm: cache dir: %w", err)
		}
		n, bytes, err := c.sweep()
		if err != nil {
			return nil, err
		}
		c.onDisk = n
		c.diskBytes = bytes
	}
	return c, nil
}

// sweep counts recoverable entries and their bytes, deleting temp
// droppings.
func (c *Cache) sweep() (int, int64, error) {
	n, bytes := 0, int64(0)
	err := filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		switch {
		case strings.HasSuffix(d.Name(), ".json"):
			n++
			if fi, err := d.Info(); err == nil {
				bytes += fi.Size()
			}
		case strings.Contains(d.Name(), ".tmp"):
			//multicube:atomicwrite-ok temp droppings from writers killed mid-Put; never renamed, so never durable
			os.Remove(path)
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("farm: cache recovery scan: %w", err)
	}
	return n, bytes, nil
}

// path shards entries by fingerprint prefix so no directory grows
// unboundedly.
func (c *Cache) path(fp string) string {
	shard := "xx"
	if len(fp) >= 2 {
		shard = fp[:2]
	}
	return filepath.Join(c.dir, shard, fp+".json")
}

// Get returns the stored canonical result bytes for fp and the tier
// that served them (TierMem or TierDisk), or ok=false on a miss. A disk
// hit is validated and promoted into the memory tier; a corrupt disk
// entry is deleted and reported as a miss (the job simply re-runs).
func (c *Cache) Get(fp string) (data []byte, tier string, ok bool) {
	c.mu.Lock()
	if el, hit := c.byFP[fp]; hit {
		c.lru.MoveToFront(el)
		data = el.Value.(*cacheEntry).data
		c.mu.Unlock()
		return data, TierMem, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		return nil, "", false
	}
	b, err := os.ReadFile(c.path(fp))
	if err != nil {
		return nil, "", false
	}
	var r jobspec.Result
	if err := json.Unmarshal(b, &r); err != nil || r.Validate() != nil || r.Fingerprint != fp {
		//multicube:atomicwrite-ok corrupt entry: cache loss only costs a re-run, and keeping it would re-fail every Get
		if os.Remove(c.path(fp)) == nil {
			c.mu.Lock()
			c.onDisk--
			c.diskBytes -= int64(len(b))
			c.mu.Unlock()
		}
		return nil, "", false
	}
	c.insertMem(fp, b)
	return b, TierDisk, true
}

// Put stores the canonical result bytes under fp in both tiers. The
// disk write is atomic (durable.WriteFile).
func (c *Cache) Put(fp string, data []byte) error {
	c.insertMem(fp, data)
	if c.dir == "" {
		return nil
	}
	path := c.path(fp)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("farm: cache put: %w", err)
	}
	var overwritten int64 // bytes replaced if this fp already has a disk entry
	if fi, err := os.Stat(path); err == nil {
		overwritten = fi.Size()
	}
	if err := durable.WriteFile(path, data); err != nil {
		return fmt.Errorf("farm: cache put: %w", err)
	}
	c.mu.Lock()
	if overwritten == 0 {
		c.onDisk++
	}
	c.diskBytes += int64(len(data)) - overwritten
	c.mu.Unlock()
	return nil
}

func (c *Cache) insertMem(fp string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byFP[fp]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*cacheEntry).data = data
		return
	}
	c.byFP[fp] = c.lru.PushFront(&cacheEntry{fp: fp, data: data})
	for c.lru.Len() > c.maxMem {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.byFP, last.Value.(*cacheEntry).fp)
	}
}

// Stats reports the memory-tier entry count, the on-disk entry count
// (recovered at startup plus written since) and the disk tier's bytes.
func (c *Cache) Stats() (mem, disk int, diskBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.onDisk, c.diskBytes
}
