package farm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"multicube/internal/durable"
	"multicube/internal/farm/jobspec"
)

// Corpus is the persistent swarm regression set: every seed that ever
// produced a violation, with enough context to replay it forever.
// mc.SwarmScenario is a pure function of (seed, machine), so an entry
// IS its reproduction — the farm institutionalizes autonomously-found
// bugs the way PR 4's stale-shared-mp race was distilled by hand.
// Entries are one JSON file each, written atomically; a directory of
// them survives restarts and travels with the cache volume.
type Corpus struct {
	dir     string // "" = memory-only
	mu      sync.Mutex
	entries map[string]CorpusEntry
}

// CorpusEntry records one violating swarm seed.
type CorpusEntry struct {
	Seed      int64 `json:"seed"`
	SingleBus bool  `json:"single_bus"`
	// Kind and Msg describe the violation as first found.
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
	// MaxStates is the exploration budget that found it; replays use
	// the same budget so the regression stays reachable.
	MaxStates int `json:"max_states"`
	// FoundBy is the fingerprint of the swarm job that caught it.
	FoundBy string `json:"found_by,omitempty"`
}

func (e *CorpusEntry) machine() string {
	if e.SingleBus {
		return "singlebus"
	}
	return "multicube"
}

func (e *CorpusEntry) key() string { return fmt.Sprintf("seed-%d-%s", e.Seed, e.machine()) }

// replay lowers the entry into a single-seed swarm job with the budget
// that originally found the violation.
func (e *CorpusEntry) replay() jobspec.Spec {
	return jobspec.Spec{Kind: jobspec.KindSwarm, Swarm: &jobspec.SwarmSpec{
		BaseSeed: e.Seed, Count: 1, Machines: e.machine(), MaxStates: e.MaxStates}}
}

// OpenCorpus loads the corpus at dir, creating it if missing, and
// deletes the temp files of Adds killed mid-write; dir "" keeps the
// corpus in memory only.
func OpenCorpus(dir string) (*Corpus, error) {
	c := &Corpus{dir: dir, entries: make(map[string]CorpusEntry)}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("farm: corpus dir: %w", err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("farm: corpus scan: %w", err)
	}
	for _, f := range files {
		if !f.IsDir() && strings.Contains(f.Name(), ".tmp") {
			//multicube:atomicwrite-ok temp droppings from writers killed mid-Add; never renamed, so never durable
			os.Remove(filepath.Join(dir, f.Name()))
		}
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			continue
		}
		var e CorpusEntry
		if json.Unmarshal(b, &e) != nil || e.MaxStates <= 0 {
			continue // corrupt entry: skip, don't fail startup
		}
		spec := e.replay()
		if _, err := spec.Normalize(); err != nil {
			continue // a replay job the server would refuse
		}
		c.entries[e.key()] = e
	}
	return c, nil
}

// Add records a violating seed, returning false if it was already
// known. New entries are persisted atomically before Add returns.
func (c *Corpus) Add(e CorpusEntry) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := e.key()
	if _, dup := c.entries[key]; dup {
		return false, nil
	}
	if c.dir != "" {
		b, err := json.MarshalIndent(e, "", " ")
		if err != nil {
			return false, err
		}
		if err := durable.WriteFile(filepath.Join(c.dir, key+".json"), append(b, '\n')); err != nil {
			return false, fmt.Errorf("farm: corpus add: %w", err)
		}
	}
	c.entries[key] = e
	return true, nil
}

// Entries returns the corpus sorted by (seed, machine) — a stable order
// for listings and replay batches.
func (c *Corpus) Entries() []CorpusEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CorpusEntry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seed != out[j].Seed {
			return out[i].Seed < out[j].Seed
		}
		return !out[i].SingleBus && out[j].SingleBus
	})
	return out
}

// Len reports the number of recorded seeds.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// ReplaySpecs lowers every entry into its replay job — the regression
// batch POST /corpus/replay submits.
func (c *Corpus) ReplaySpecs() []jobspec.Spec {
	entries := c.Entries()
	out := make([]jobspec.Spec, len(entries))
	for i := range entries {
		out[i] = entries[i].replay()
	}
	return out
}
