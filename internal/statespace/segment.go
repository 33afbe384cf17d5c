package statespace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// A run is one immutable sorted segment of a shard, spilled from the hot
// set. On-disk layout, little-endian uint64 words throughout:
//
//	header  (4 words): magic, version|shard<<32, count, bloomWords
//	bloom   (bloomWords words): membership filter over the index keys
//	index   (count words): the fingerprints, ascending
//	trailer (1 word): FNV-1a 64 over every preceding byte
//
// The trailer makes truncation and bit rot detectable: openRun streams
// the whole file once and refuses a mismatch, so a corrupt segment can
// never silently truncate the search (the caller falls back to a fresh
// exploration). That pass also keeps every fenceStride-th index key in
// RAM (the fence), so a lookup afterwards is a bloom reject, or a binary
// search of the fence and one ReadAt of the block of index entries it
// points at — served from the page cache in the common case.
const (
	runMagic = 0x4d43_5353_4547_3031 // "MCSSEG01" read as a LE word
	// Version 1 followed each key with a packed payload word and ended the
	// index with a payload section; such a run is refused as corrupt.
	runVersion = 2
	runSuffix  = ".run"

	runHeaderWords = 4

	// fenceStride index entries make one block: 256 bytes, a single read,
	// for 0.25 bytes of fence a key beside the bloom filter's 1.5.
	fenceStride = 32
)

type run struct {
	path   string
	f      *os.File
	size   int64
	sum    uint64 // trailer checksum, recorded in checkpoint manifests
	synced bool   // on disk: a checkpoint named it (syncRuns) or Resume adopted it
	count  int64
	bloom  bloom
	fence  []uint64 // the first key of every block of fenceStride index entries

	indexOff int64
}

func runName(shard int, seq uint64) string {
	return fmt.Sprintf("shard-%02d-%06d%s", shard, seq, runSuffix)
}

// writeRun writes keys (ascending, unique) as a new run under dir — a
// temp file renamed into place, durable.WriteFile's shape without its
// fsync — then re-opens it, which validates the image back. The run
// becomes durable only when a checkpoint pins it (Store.syncRuns).
func writeRun(dir string, shard int, seq uint64, keys []uint64) (*run, error) {
	bl := newBloom(len(keys))
	for _, fp := range keys {
		bl.add(fp)
	}
	buf := make([]byte, 0, 8*(runHeaderWords+len(bl.words)+len(keys)+1))
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put(runMagic)
	put(uint64(runVersion) | uint64(shard)<<32)
	put(uint64(len(keys)))
	put(uint64(len(bl.words)))
	for _, w := range bl.words {
		put(w)
	}
	for _, fp := range keys {
		put(fp)
	}
	put(fnvBytes(buf))

	path := filepath.Join(dir, runName(shard, seq))
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("statespace: spill: %w", err)
	}
	_, err = tmp.Write(buf)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		//multicube:atomicwrite-ok unsynced until pinned: WriteCheckpoint fsyncs every run its manifest names before the manifest's rename, and Open sweeps runs no manifest names
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("statespace: spill: %w", err)
	}
	r, err := openRun(path, shard)
	if err != nil {
		return nil, fmt.Errorf("statespace: spill read-back: %w", err)
	}
	return r, nil
}

// openRun opens and validates a run. Every failure of the image itself is
// ErrCorrupt, so resume callers can tell damage from a failing disk.
func openRun(path string, wantShard int) (*run, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, corrupt("run %s missing", filepath.Base(path))
		}
		return nil, err
	}
	r := &run{path: path, f: f}
	if err := r.validate(wantShard); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// validate streams the whole image once — header sanity, size arithmetic,
// the trailer checksum, the index — and loads the bloom words and the
// fence in passing.
func (r *run) validate(wantShard int) error {
	bad := func(format string, args ...any) error {
		return corrupt("run %s: %s", filepath.Base(r.path), fmt.Sprintf(format, args...))
	}
	fi, err := r.f.Stat()
	if err != nil {
		return err
	}
	body := make([]byte, fi.Size())
	if _, err := io.ReadFull(r.f, body); err != nil {
		return bad("short read")
	}
	words := uint64(len(body)) / 8
	if len(body)%8 != 0 || words <= runHeaderWords {
		return bad("short header")
	}
	word := func(i uint64) uint64 { return binary.LittleEndian.Uint64(body[8*i:]) }
	if word(0) != runMagic || word(1)&0xffffffff != runVersion {
		return bad("bad magic/version")
	}
	if shard := int(word(1) >> 32); shard != wantShard {
		return bad("shard %d, want %d", shard, wantShard)
	}
	// Bound every header count by the words the file holds before any
	// arithmetic on it: a count near 2⁶¹ would wrap the size sum back onto
	// the real size, pass the check below and size an allocation.
	if word(2) > words || word(3) == 0 || word(3) > words {
		return bad("header counts exceed its %d bytes", len(body))
	}
	r.count = int64(word(2))
	bloomWords := int64(word(3))
	r.size = 8 * (runHeaderWords + bloomWords + r.count + 1)
	if int64(len(body)) != r.size {
		return bad("size %d, want %d", len(body), r.size)
	}
	r.indexOff = 8 * (runHeaderWords + bloomWords)
	if r.sum = word(words - 1); fnvBytes(body[:r.size-8]) != r.sum {
		return bad("checksum mismatch")
	}
	// The checksum vouches for the writer, not the layout: hold the index
	// to what lookup's binary search assumes — keys strictly ascending.
	r.fence = make([]uint64, 0, (r.count+fenceStride-1)/fenceStride)
	for i, prev := int64(0), uint64(0); i < r.count; i++ {
		key := binary.LittleEndian.Uint64(body[r.indexOff+8*i:])
		if i > 0 && key <= prev {
			return bad("malformed index entry %d", i)
		}
		if i%fenceStride == 0 {
			r.fence = append(r.fence, key)
		}
		prev = key
	}
	r.bloom.words = make([]uint64, bloomWords)
	for i := range r.bloom.words {
		r.bloom.words[i] = word(runHeaderWords + uint64(i))
	}
	return nil
}

// lookup reports whether the run holds fp: bloom reject, then the block
// whose first key is the last fence key not above fp, read whole and
// scanned. tc counts the lookups that passed the filter and their reads.
// A read that fails is the disk's error, wrapped as it is: ErrCorrupt
// names a damaged image found at resume, not a live search's failing
// disk.
func (r *run) lookup(fp uint64, tc *TierCounts) (bool, error) {
	if !r.bloom.has(fp) {
		return false, nil
	}
	tc.DiskLookups++
	b, found := slices.BinarySearch(r.fence, fp)
	if !found {
		if b--; b < 0 {
			return false, nil // below the run's first key
		}
	}
	first := int64(b) * fenceStride
	var block [8 * fenceStride]byte
	keys := block[:8*min(r.count-first, fenceStride)]
	tc.DiskReads++
	if _, err := r.f.ReadAt(keys, r.indexOff+8*first); err != nil {
		return false, fmt.Errorf("statespace: run %s: index read: %w", filepath.Base(r.path), err)
	}
	for ; len(keys) > 0; keys = keys[8:] {
		if key := binary.LittleEndian.Uint64(keys); key >= fp {
			return key == fp, nil
		}
	}
	return false, nil
}

// appendKeys appends the run's keys, ascending, to dst (compaction and
// tests). A failed read is reported as lookup reports one.
func (r *run) appendKeys(dst []uint64) ([]uint64, error) {
	index := make([]byte, 8*r.count)
	if _, err := r.f.ReadAt(index, r.indexOff); err != nil {
		return dst, fmt.Errorf("statespace: run %s: read: %w", filepath.Base(r.path), err)
	}
	for ; len(index) > 0; index = index[8:] {
		dst = append(dst, binary.LittleEndian.Uint64(index))
	}
	return dst, nil
}

func (r *run) close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// remove closes and deletes the run file (compaction, Reset).
func (r *run) remove() error {
	if err := r.close(); err != nil {
		return err
	}
	//multicube:atomicwrite-ok compaction/Reset retire runs already unreferenced by the manifest (or re-gc'd on the next checkpoint)
	if err := os.Remove(r.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// fnvBytes is FNV-1a 64 over a byte slice — the same hash family the
// fingerprint layer uses, here guarding file integrity.
func fnvBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}
