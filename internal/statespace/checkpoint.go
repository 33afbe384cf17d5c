package statespace

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"multicube/internal/durable"
)

// Checkpoints snapshot one exploration at a frontier boundary: every
// shard flushed to immutable runs, the DFS frontier serialized, and a
// manifest naming both with their checksums, renamed into place last so
// the newest complete checkpoint is always the one a resume sees. A
// crash between any two steps leaves either the previous manifest or the
// new one — never a torn state — and orphaned files from the loser are
// swept on the next checkpoint or resume.
//
// Nothing in a checkpoint derives from the wall clock: files are named
// by a store-local sequence number and the manifest carries only
// search-state counters, which is what makes a resumed run's verdict,
// state count, and counterexample byte-identical to an uninterrupted
// one.

const (
	manifestName = "MANIFEST.json"
	// Schema 2 records the store's shard bits, which a memory budget under
	// 1 MiB lowers from 6: a schema-1 manifest is refused as corrupt.
	manifestSchema = 2
	frontierSuffix = ".ssf"
	// "MCSSFR03" read as a LE word. 01 and 02 carried more words per item
	// than its prefix; such a file fails the magic check.
	frontierMagic = 0x4d43_5353_4652_3033
)

// ErrNoCheckpoint reports that the checkpoint directory holds no
// manifest (nothing to resume; start fresh).
var ErrNoCheckpoint = errors.New("statespace: no checkpoint")

// ErrCorrupt reports a manifest, frontier, or run that fails validation;
// callers are expected to fall back to a fresh exploration.
var ErrCorrupt = errors.New("statespace: corrupt checkpoint")

// ErrMismatch reports a well-formed checkpoint for a different scenario
// or different exploration options.
var ErrMismatch = errors.New("statespace: checkpoint does not match this exploration")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Meta is the resumable search state beyond the visited table itself.
// The counters map is caller-defined (the explorer stores its run and
// fingerprint statistics); JSON renders it with sorted keys, keeping the
// manifest bytes deterministic.
type Meta struct {
	// ScenarioHash and OptionsHash pin the checkpoint to one exploration;
	// Resume refuses a mismatch rather than silently mixing state spaces.
	ScenarioHash string            `json:"scenario_hash"`
	OptionsHash  string            `json:"options_hash"`
	Depth        int               `json:"depth"`
	Counters     map[string]uint64 `json:"counters,omitempty"`
}

type manifest struct {
	Schema int    `json:"schema"`
	Seq    uint64 `json:"seq"`
	// ShardBits is how many top fingerprint bits index a shard in the
	// store that wrote the runs below; Resume adopts it, so a resume under
	// another memory budget still looks every key up in the run holding it.
	ShardBits   int    `json:"shard_bits"`
	Meta        Meta   `json:"meta"`
	States      int64  `json:"states"`
	Spills      int64  `json:"spills"`
	Frontier    string `json:"frontier"`
	FrontierSum string `json:"frontier_sum"`
	// Shards lists every shard with on-disk runs, oldest run first; a
	// shard's runs hold disjoint keys.
	Shards []manifestShard `json:"shards,omitempty"`
}

type manifestShard struct {
	Shard int           `json:"shard"`
	Runs  []manifestRun `json:"runs"`
}

type manifestRun struct {
	File  string `json:"file"`
	Sum   string `json:"sum"`
	Count int64  `json:"count"`
}

// WriteCheckpoint atomically persists the store plus the given frontier
// (the pending DFS work items, each as its choice prefix) and metadata.
// The explorer checkpoints only between runs.
func (s *Store) WriteCheckpoint(meta Meta, frontier [][]int) error {
	if s.cfg.CheckpointDir == "" || s.cfg.Dir == "" {
		return errors.New("statespace: checkpointing requires spill and checkpoint directories")
	}
	// Flush every dirty shard — one with a non-empty hot set — so the run
	// stacks alone reproduce the table; spillShard leaves a clean shard's
	// runs as they are. Each run the manifest will name is then synced.
	for i := range s.shards {
		if err := s.spillShard(i); err != nil {
			return err
		}
		if err := s.syncRuns(&s.shards[i]); err != nil {
			return err
		}
	}
	s.seq++
	seq := s.seq
	frontierFile := fmt.Sprintf("frontier-%06d%s", seq, frontierSuffix)
	fsum, err := writeFrontier(filepath.Join(s.cfg.CheckpointDir, frontierFile), frontier)
	if err != nil {
		return err
	}
	m := manifest{
		Schema:      manifestSchema,
		Seq:         seq,
		ShardBits:   64 - int(s.shift),
		Meta:        meta,
		States:      s.count,
		Spills:      s.spills,
		Frontier:    frontierFile,
		FrontierSum: fmt.Sprintf("%016x", fsum),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		if len(sh.runs) > 0 {
			ms := manifestShard{Shard: i}
			for _, r := range sh.runs {
				ms.Runs = append(ms.Runs, manifestRun{
					File:  filepath.Base(r.path),
					Sum:   fmt.Sprintf("%016x", r.sum),
					Count: r.count,
				})
			}
			m.Shards = append(m.Shards, ms)
		}
	}
	data, err := json.MarshalIndent(&m, "", " ")
	if err != nil {
		return fmt.Errorf("statespace: manifest: %w", err)
	}
	if err := durable.WriteFile(filepath.Join(s.cfg.CheckpointDir, manifestName), data); err != nil {
		return fmt.Errorf("statespace: manifest: %w", err)
	}
	keep := make(map[string]bool)
	keep[m.Frontier] = true
	for _, ms := range m.Shards {
		for _, r := range ms.Runs {
			keep[r.File] = true
		}
	}
	// The renamed manifest is now the one a resume sees: its files are
	// the new pinned set, and everything else — including runs a
	// compaction retired but could not unlink while the previous
	// manifest named them — is garbage.
	s.pinned = keep
	return s.gc(keep)
}

// syncRuns fsyncs each of the shard's runs that no checkpoint has synced
// yet: a spill leaves its run unsynced, as no crash reads an unnamed run.
func (s *Store) syncRuns(sh *shard) error {
	for _, r := range sh.runs {
		if r.synced {
			continue
		}
		if err := r.f.Sync(); err != nil {
			return fmt.Errorf("statespace: checkpoint: sync %s: %w", filepath.Base(r.path), err)
		}
		r.synced = true
		s.syncs++
	}
	return nil
}

// gc removes run and frontier files the manifest no longer references
// (compacted inputs, superseded frontiers). Safe after the rename: the
// durable manifest names only survivors.
func (s *Store) gc(keep map[string]bool) error {
	for _, dir := range []string{s.cfg.Dir, s.cfg.CheckpointDir} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("statespace: gc: %w", err)
		}
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || keep[name] {
				continue
			}
			if strings.HasSuffix(name, runSuffix) || strings.HasSuffix(name, frontierSuffix) {
				//multicube:atomicwrite-ok manifest-pinned: keep holds every file the renamed manifest references
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return fmt.Errorf("statespace: gc: %w", err)
				}
			}
		}
	}
	return nil
}

// Resume reopens a checkpointed store. The scenario and options hashes
// must match the manifest's; every run and the frontier must validate.
// On success the returned store serves Visit from the checkpoint's runs
// and the frontier's prefixes reconstruct the DFS stack.
func Resume(cfg Config, scenarioHash, optionsHash string) (*Store, Meta, [][]int, error) {
	if cfg.CheckpointDir == "" || cfg.Dir == "" {
		return nil, Meta{}, nil, errors.New("statespace: resume requires spill and checkpoint directories")
	}
	data, err := os.ReadFile(filepath.Join(cfg.CheckpointDir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, Meta{}, nil, ErrNoCheckpoint
		}
		return nil, Meta{}, nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, Meta{}, nil, corrupt("manifest: %v", err)
	}
	if m.Schema != manifestSchema {
		return nil, Meta{}, nil, corrupt("manifest schema %d, want %d", m.Schema, manifestSchema)
	}
	if m.Meta.ScenarioHash != scenarioHash || m.Meta.OptionsHash != optionsHash {
		return nil, Meta{}, nil, fmt.Errorf("%w: checkpoint is for scenario %s options %s",
			ErrMismatch, m.Meta.ScenarioHash, m.Meta.OptionsHash)
	}
	if m.ShardBits < 0 || m.ShardBits > maxShardBits {
		return nil, Meta{}, nil, corrupt("manifest shard bits %d", m.ShardBits)
	}
	s := newStore(cfg, m.ShardBits)
	fail := func(err error) (*Store, Meta, [][]int, error) {
		s.Close()
		return nil, Meta{}, nil, err
	}
	for _, ms := range m.Shards {
		if ms.Shard < 0 || ms.Shard >= len(s.shards) {
			return fail(corrupt("manifest names shard %d", ms.Shard))
		}
		sh := &s.shards[ms.Shard]
		for _, mr := range ms.Runs {
			// Only a name this store could have written is handed to the
			// file system: anything else is damage, not an I/O error.
			var seq uint64
			if _, err := fmt.Sscanf(mr.File, "shard-%02d-%d", new(int), &seq); err != nil || mr.File != runName(ms.Shard, seq) {
				return fail(corrupt("manifest names run %q for shard %d", mr.File, ms.Shard))
			}
			r, err := openRun(filepath.Join(cfg.Dir, mr.File), ms.Shard)
			if err != nil {
				return fail(err)
			}
			if fmt.Sprintf("%016x", r.sum) != mr.Sum || r.count != mr.Count {
				r.close()
				return fail(corrupt("run %s does not match its manifest entry", mr.File))
			}
			r.synced = true // a manifest named it, so a checkpoint synced it
			sh.runs = append(sh.runs, r)
			s.diskBytes += r.size
		}
	}
	frontier, err := readFrontier(filepath.Join(cfg.CheckpointDir, m.Frontier), m.FrontierSum)
	if err != nil {
		return fail(err)
	}
	s.count, s.spills, s.seq = m.States, m.Spills, m.Seq
	// The adopted manifest stays the resume point until this process
	// writes its own checkpoint; its files must survive compaction.
	keep := map[string]bool{m.Frontier: true}
	for _, ms := range m.Shards {
		for _, r := range ms.Runs {
			keep[r.File] = true
		}
	}
	s.pinned = keep
	return s, m.Meta, frontier, nil
}

// Clear removes every statespace file under the configured directories —
// the recovery path once Resume reports corruption, before starting
// fresh.
func Clear(cfg Config) error {
	for _, dir := range []string{cfg.Dir, cfg.CheckpointDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("statespace: clear: %w", err)
		}
		if err := sweepStale(dir); err != nil {
			return err
		}
	}
	return nil
}

// writeFrontier persists the DFS stack and returns its checksum.
func writeFrontier(path string, prefixes [][]int) (uint64, error) {
	buf := encodeFrontier(prefixes)
	if err := durable.WriteFile(path, buf); err != nil {
		return 0, fmt.Errorf("statespace: frontier: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[len(buf)-8:]), nil
}

// encodeFrontier lays out the DFS stack: magic, item count, then each
// item's choice prefix (a length word, then the choices), with an FNV
// trailer.
// The stack order is preserved exactly — resume must pop in the same
// order the interrupted pass would have.
func encodeFrontier(prefixes [][]int) []byte {
	buf := make([]byte, 0, 64+32*len(prefixes))
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put(frontierMagic)
	put(uint64(len(prefixes)))
	for _, prefix := range prefixes {
		put(uint64(len(prefix)))
		for _, p := range prefix {
			put(uint64(int64(p)))
		}
	}
	return binary.LittleEndian.AppendUint64(buf, fnvBytes(buf))
}

func readFrontier(path, wantSum string) ([][]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, corrupt("frontier %s: %v", filepath.Base(path), err)
	}
	if len(data) < 24 || len(data)%8 != 0 {
		return nil, corrupt("frontier %s: malformed length", filepath.Base(path))
	}
	sum := binary.LittleEndian.Uint64(data[len(data)-8:])
	if fnvBytes(data[:len(data)-8]) != sum || fmt.Sprintf("%016x", sum) != wantSum {
		return nil, corrupt("frontier %s: checksum mismatch", filepath.Base(path))
	}
	words := len(data)/8 - 1
	at := 0
	next := func() (uint64, bool) {
		if at >= words {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(data[8*at:])
		at++
		return v, true
	}
	bad := func() ([][]int, error) {
		return nil, corrupt("frontier %s: truncated records", filepath.Base(path))
	}
	if magic, ok := next(); !ok || magic != frontierMagic {
		return nil, corrupt("frontier %s: bad magic", filepath.Base(path))
	}
	// An item is at least its length word: a count the words present
	// cannot hold is damage, caught here before it sizes an allocation.
	n, ok := next()
	if !ok || n > uint64(words-at) {
		return bad()
	}
	prefixes := make([][]int, 0, n)
	for i := uint64(0); i < n; i++ {
		pn, ok := next()
		if !ok || pn > uint64(words-at) {
			return bad()
		}
		var prefix []int
		if pn > 0 {
			prefix = make([]int, pn)
			for j := range prefix {
				v, _ := next()
				prefix[j] = int(int64(v))
			}
		}
		prefixes = append(prefixes, prefix)
	}
	if at != words {
		return nil, corrupt("frontier %s: trailing records", filepath.Base(path))
	}
	return prefixes, nil
}
