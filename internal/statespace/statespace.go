// Package statespace is the explorer's visited-state store, grown from
// internal/mc's in-memory sharded table into a storage subsystem whose
// capacity is bounded by disk, not RAM.
//
// The store is a set of canonical state fingerprints. It keeps up to 64
// shards keyed by the top bits of the fingerprint (fewer under a small
// memory budget, see shardBits), so shard order IS fingerprint order and
// iteration is deterministic by construction. Each shard holds a hot set
// plus a stack of immutable, sorted, checksummed on-disk runs (spilled
// under a hard memory budget, bloom-filtered so absent-key probes stay in
// RAM). A key is stored once: a visit that finds it in any tier records
// nothing, so a shard's runs and its hot set hold disjoint keys.
//
// On top of the tiered table sit atomic checkpoints (manifest + frontier
// + spilled shards, each written through internal/durable) that let a
// killed exploration resume with a byte-identical verdict.
//
// A Store has one owner, the explorer goroutine that opened it, and is
// not safe for concurrent use. A shard is the spill unit, not a lock: a
// checkpoint flushes exactly the shards whose hot set is non-empty.
//
// The package participates in the explorer's determinism contract: no
// wall clock anywhere — checkpoint metadata carries a sequence number,
// never a timestamp — and no map-order dependence. multicube-vet
// enforces both (see internal/analysis).
//
// Checkpoint files are durable state: frontiers and manifests go through
// durable.WriteFile, a run is fsynced when a checkpoint pins it (its
// unsynced rename is atomicwrite's one annotated exception), and every
// delete is held to the manifest-pin discipline.
//
//multicube:deterministic
//multicube:durable
package statespace

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

const (
	// maxShardBits caps the shard index at the top 6 bits of a
	// fingerprint: 64 shards, each a spill unit.
	maxShardBits = 6

	// minSpillBytes is the least share of a memory budget a shard may be
	// left with. A shard is the spill unit: canonical fingerprints are
	// uniform, so when the budget trips the fullest of 2^b shards holds
	// about twice budget>>b, and that is all one run file can carry away. A
	// run costs a create, rename, reopen and validating read-back whatever
	// it holds — 0.02–0.05 ms unsynced for 1 to 230 entries on the recording
	// host (EXPERIMENTS.md "PR 33") against 0.18 µs to insert one. At 64
	// shards a 64 KiB budget spilled 31 entries a file, about 1 µs each; at
	// 16 KiB a shard a run carries some 400 at 0.1 µs each, below the 2.7 µs
	// a later lookup in it pays in pread probes. The spilling
	// litmus-coww-3x3 pass was flat from 8 KiB up when runs were fsynced
	// (36, 20, 12, 8 spills at 8–64 KiB: 167–195 ms), so a larger unit buys
	// nothing.
	minSpillBytes = 16 << 10

	// maxRunsPerShard bounds the on-disk run stack per shard; beyond it a
	// spill triggers a merge compaction, keeping lookups O(log n) over a
	// handful of files.
	maxRunsPerShard = 4

	// entryOverhead is what the budget charges for one hot entry. It was
	// set when an entry also carried a slice header, where a set entry
	// holds its key alone, but it fixes the visit on which every spill
	// lands, so it stays until a measured change retunes it. The budget is
	// an engineering bound, not an exact accounting.
	entryOverhead = 64
)

// Config bounds one Store.
type Config struct {
	// Dir is the spill directory; "" keeps the store memory-only (no
	// spilling, no checkpoints — the PR-2 visitedSet behavior).
	Dir string
	// MemBudget caps the estimated hot-tier bytes; exceeding it spills
	// the largest shard to a sorted run under Dir. Zero means unbounded.
	// Below 1 MiB it also sets how many shards the store keeps (shardBits).
	// What a spilled run keeps in RAM — its bloom filter and fence, 1.75
	// bytes a key against the 64 charged for a hot entry — is not charged
	// to it: that would shrink the hot tier as the disk tier grows, and
	// every spill that costs is a file (minSpillBytes).
	MemBudget int64
	// CheckpointDir holds the manifest and frontier files; "" disables
	// checkpoints. May equal Dir.
	CheckpointDir string
}

// Outcome is the result of one Visit.
type Outcome uint8

const (
	// OutcomeNew: first visit; the state was recorded.
	OutcomeNew Outcome = iota
	// OutcomeSeen: the state is already stored; every successor from here
	// is already covered.
	OutcomeSeen
	// OutcomeBudget: the state budget is exhausted; nothing was recorded.
	OutcomeBudget
)

// shard is one fingerprint range: a hot set over a stack of immutable
// sorted runs, all of them disjoint. A shard is dirty — a checkpoint
// has something to flush — exactly when its hot set is non-empty.
type shard struct {
	// hot holds the fingerprints recorded since the shard last spilled.
	hot map[uint64]struct{}
	// bytes estimates the hot tier's memory cost.
	bytes int64
	// runs is the on-disk tier, oldest first.
	runs []*run
}

// Store is the tiered visited-state table. It is not safe for concurrent
// use: the explorer that opened it is its only caller.
type Store struct {
	cfg Config
	// shards has 1<<bits elements and shift is 64-bits: shard index = the
	// top bits of the fingerprint. Fixed at Open; Resume adopts the bits
	// of the manifest it reads, whatever the budget it is handed.
	shards []shard
	shift  uint

	count     int64 // distinct states recorded
	bytes     int64 // hot-tier estimate across shards
	spills    int64
	syncs     int64 // runs fsynced by checkpoints (host cost)
	diskBytes int64
	seq       uint64 // file-name sequence (never a timestamp)

	// Tier says which tier answered the visits of states already stored:
	// those the hot set answered, the run lookups that passed the run's
	// bloom filter, and the ReadAt calls those made. Host cost, kept across
	// Reset; a resumed search sets it to what its checkpoint recorded.
	Tier TierCounts

	// pinned holds the file basenames the newest durable manifest
	// references. Compaction and Reset must not unlink them — a crash
	// before the next checkpoint would leave that manifest naming deleted
	// files and the resume would degrade to a fresh exploration. They are
	// closed instead and swept by the next checkpoint's gc, whose renamed
	// manifest no longer names them.
	pinned map[string]bool

	err error // sticky first I/O failure; Visit degrades to OutcomeSeen
}

// TierCounts is Store.Tier.
type TierCounts struct{ HotHits, DiskLookups, DiskReads uint64 }

// Open creates a store under cfg. A non-empty Dir is created and swept
// of temp droppings; stale run files from a previous process are removed
// (resume goes through Resume, which adopts only manifest-listed runs).
func Open(cfg Config) (*Store, error) {
	if cfg.MemBudget > 0 && cfg.Dir == "" {
		return nil, errors.New("statespace: a memory budget requires a spill directory")
	}
	s := newStore(cfg, shardBits(cfg.MemBudget))
	for _, dir := range []string{cfg.Dir, cfg.CheckpointDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("statespace: %w", err)
		}
	}
	if cfg.Dir != "" {
		if err := sweepStale(cfg.Dir); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// shardBits derives the shard count from the memory budget: the most
// shards, up to 64, that still leave each at least minSpillBytes of it —
// 64 with no budget or from 1 MiB up, 4 at 64 KiB, 1 below 32 KiB.
func shardBits(memBudget int64) int {
	bits := maxShardBits
	for memBudget > 0 && bits > 0 && memBudget>>bits < minSpillBytes {
		bits--
	}
	return bits
}

// newStore returns an empty store of 1<<bits shards.
func newStore(cfg Config, bits int) *Store {
	s := &Store{cfg: cfg, shards: make([]shard, 1<<bits), shift: uint(64 - bits)}
	for i := range s.shards {
		s.shards[i].hot = make(map[uint64]struct{})
	}
	return s
}

// sweepStale removes run, frontier, and temp files left behind by a
// previous process; a fresh exploration must not see them.
func sweepStale(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("statespace: sweep: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, runSuffix) || strings.HasSuffix(name, frontierSuffix) ||
			strings.Contains(name, ".tmp") || name == manifestName {
			//multicube:atomicwrite-ok fresh store: the caller starts from scratch, so nothing here is pinned
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return fmt.Errorf("statespace: sweep: %w", err)
			}
		}
	}
	return nil
}

// fail records the first I/O failure; the explorer consults Err at
// frontier boundaries and aborts, so a degraded Visit answer is never
// silently folded into a verdict.
func (s *Store) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Err reports the sticky first I/O failure, if any.
func (s *Store) Err() error { return s.err }

// Visit records an arrival at state fp against a table capped at max
// states: OutcomeSeen if fp is stored, else OutcomeNew once it is
// recorded, or OutcomeBudget if the table is full. The middle parameter
// is ignored; it was the arrival's sleep set, which the explorer no
// longer keeps.
func (s *Store) Visit(fp uint64, _ []uint64, max int) Outcome {
	sh := &s.shards[fp>>s.shift] // a shift by 64 (one shard) yields 0
	if _, ok := sh.hot[fp]; ok {
		s.Tier.HotHits++
		return OutcomeSeen
	}
	if len(sh.runs) > 0 {
		ok, err := sh.lookupRuns(fp, &s.Tier)
		if err != nil {
			s.fail(err)
			// Degrade conservatively: truncate this branch. The explorer
			// aborts on Err at the next frontier boundary.
			return OutcomeSeen
		}
		if ok {
			return OutcomeSeen
		}
	}
	if s.count >= int64(max) {
		return OutcomeBudget
	}
	s.count++
	sh.hot[fp] = struct{}{}
	sh.bytes += entryOverhead
	s.bytes += entryOverhead
	s.maybeSpill()
	return OutcomeNew
}

// lookupRuns reports whether one of the shard's runs holds fp, newest
// run first.
func (sh *shard) lookupRuns(fp uint64, tc *TierCounts) (bool, error) {
	for i := len(sh.runs) - 1; i >= 0; i-- {
		if ok, err := sh.runs[i].lookup(fp, tc); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// maybeSpill evicts the largest hot shards to disk until the estimate is
// back under budget.
func (s *Store) maybeSpill() {
	for s.cfg.MemBudget > 0 && s.bytes > s.cfg.MemBudget {
		victim, victimBytes := -1, int64(0)
		for i := range s.shards {
			if b := s.shards[i].bytes; b > victimBytes {
				victim, victimBytes = i, b
			}
		}
		if victim < 0 || victimBytes == 0 {
			return // nothing left to evict; the budget is simply too small
		}
		if err := s.spillShard(victim); err != nil {
			s.fail(err)
			return
		}
	}
}

// spillShard writes shard i's hot entries as one sorted run and clears
// the hot set. Compaction merges the run stack once it exceeds
// maxRunsPerShard.
func (s *Store) spillShard(i int) error {
	sh := &s.shards[i]
	if len(sh.hot) == 0 {
		return nil
	}
	keys := make([]uint64, 0, len(sh.hot))
	for fp := range sh.hot { // collect-then-sort: order restored below
		keys = append(keys, fp)
	}
	slices.Sort(keys)
	s.seq++
	r, err := writeRun(s.cfg.Dir, i, s.seq, keys)
	if err != nil {
		return err
	}
	sh.runs = append(sh.runs, r)
	sh.hot = make(map[uint64]struct{})
	s.bytes -= sh.bytes
	sh.bytes = 0
	s.spills++
	s.diskBytes += r.size
	if len(sh.runs) > maxRunsPerShard {
		return s.compact(sh, i)
	}
	return nil
}

// compact merges a shard's whole run stack into one run and deletes the
// inputs — except inputs the newest durable manifest still references,
// which are only closed and left for the next checkpoint's gc. The runs
// hold disjoint keys, so the merge is a sort of their concatenation.
func (s *Store) compact(sh *shard, i int) error {
	var keys []uint64
	for _, r := range sh.runs {
		var err error
		if keys, err = r.appendKeys(keys); err != nil {
			return err
		}
	}
	slices.Sort(keys)
	s.seq++
	r, err := writeRun(s.cfg.Dir, i, s.seq, keys)
	if err != nil {
		return err
	}
	for _, old := range sh.runs {
		s.diskBytes -= old.size
		if s.pinned[filepath.Base(old.path)] {
			if err := old.close(); err != nil {
				return err
			}
			continue
		}
		if err := old.remove(); err != nil {
			return err
		}
	}
	sh.runs = append(sh.runs[:0], r)
	s.diskBytes += r.size
	return nil
}

// States reports the number of distinct states recorded.
func (s *Store) States() int { return int(s.count) }

// Spills reports how many shard evictions have run.
func (s *Store) Spills() int { return int(s.spills) }

// Syncs reports how many runs this process's checkpoints have fsynced:
// none without a checkpoint directory.
func (s *Store) Syncs() int { return int(s.syncs) }

// DiskBytes reports the current on-disk tier size.
func (s *Store) DiskBytes() int64 { return s.diskBytes }

// MemBytes reports the current hot-tier estimate.
func (s *Store) MemBytes() int64 { return s.bytes }

// Reset clears the store for a fresh deepening iteration: every hot
// entry, every run file, the counters. The configuration is kept.
func (s *Store) Reset() error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.hot = make(map[uint64]struct{})
		sh.bytes = 0
		for _, r := range sh.runs {
			// Same crash-window rule as compaction: a manifest-referenced
			// run is closed, not unlinked, until a new manifest is durable.
			if s.pinned[filepath.Base(r.path)] {
				if err := r.close(); err != nil {
					return err
				}
				continue
			}
			if err := r.remove(); err != nil {
				return err
			}
		}
		sh.runs = nil
	}
	s.count, s.bytes, s.diskBytes = 0, 0, 0
	return nil
}

// Close releases every open run file, leaving the on-disk state intact
// (a checkpointed store remains resumable).
func (s *Store) Close() error {
	var first error
	for i := range s.shards {
		sh := &s.shards[i]
		for _, r := range sh.runs {
			if err := r.close(); err != nil && first == nil {
				first = err
			}
		}
		sh.runs = nil
	}
	return first
}
