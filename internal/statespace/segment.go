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
// map. On-disk layout, little-endian uint64 words throughout:
//
//	header  (5 words): magic, version|shard<<32, count, bloomWords, payloadWords
//	bloom   (bloomWords words): membership filter over the index keys
//	index   (count × 2 words): fp, payloadOff<<16 | sleepLen — sorted by fp
//	payload (payloadWords words): concatenated sleep-set words
//	trailer (1 word): FNV-1a 64 over every preceding byte
//
// The trailer makes truncation and bit rot detectable: openRun streams
// the whole file once and refuses a mismatch, so a corrupt segment can
// never silently truncate the search (the caller falls back to a fresh
// exploration). That pass also keeps every fenceStride-th index key in
// RAM (the fence), so a lookup afterwards is a bloom reject, or a binary
// search of the fence and one ReadAt of the block of index entries it
// points at, plus one of the payload when the stored set is not empty —
// served from the page cache in the common case.
const (
	runMagic   = 0x4d43_5353_4547_3031 // "MCSSEG01" read as a LE word
	runVersion = 1
	runSuffix  = ".run"

	runHeaderWords = 5
	maxSleepWords  = 1 << 16 // index packs the length into 16 bits

	// fenceStride index entries make one block: 512 bytes, a single read,
	// for 0.25 bytes of fence a key beside the bloom filter's 1.5.
	fenceStride = 32
)

type runEnt struct {
	fp    uint64
	sleep []uint64
}

type run struct {
	path   string
	f      *os.File
	size   int64
	sum    uint64 // trailer checksum, recorded in checkpoint manifests
	synced bool   // on disk: a checkpoint named it (syncRuns) or Resume adopted it
	count  int64
	bloom  bloom
	fence  []uint64 // the first key of every block of fenceStride index entries

	indexOff   int64
	payloadOff int64
}

func runName(shard int, seq uint64) string {
	return fmt.Sprintf("shard-%02d-%06d%s", shard, seq, runSuffix)
}

// writeRun writes ents (sorted by fp, unique keys) as a new run under
// dir — a temp file renamed into place, durable.WriteFile's shape without
// its fsync — then re-opens it, which validates the image back. The run
// becomes durable only when a checkpoint pins it (Store.syncRuns).
func writeRun(dir string, shard int, seq uint64, ents []runEnt) (*run, error) {
	payloadWords := 0
	for _, e := range ents {
		if len(e.sleep) >= maxSleepWords {
			return nil, fmt.Errorf("statespace: sleep set of %d words exceeds the run format bound", len(e.sleep))
		}
		payloadWords += len(e.sleep)
	}
	bl := newBloom(len(ents))
	for _, e := range ents {
		bl.add(e.fp)
	}
	words := runHeaderWords + len(bl.words) + 2*len(ents) + payloadWords + 1
	buf := make([]byte, 0, 8*words)
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put(runMagic)
	put(uint64(runVersion) | uint64(shard)<<32)
	put(uint64(len(ents)))
	put(uint64(len(bl.words)))
	put(uint64(payloadWords))
	for _, w := range bl.words {
		put(w)
	}
	off := 0
	for _, e := range ents {
		put(e.fp)
		put(uint64(off)<<16 | uint64(len(e.sleep)))
		off += len(e.sleep)
	}
	for _, e := range ents {
		for _, w := range e.sleep {
			put(w)
		}
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
	if word(2) > words/2 || word(3) == 0 || word(3) > words || word(4) > words {
		return bad("header counts exceed its %d bytes", len(body))
	}
	r.count = int64(word(2))
	bloomWords, payloadWords := int64(word(3)), int64(word(4))
	r.size = 8 * (runHeaderWords + bloomWords + 2*r.count + payloadWords + 1)
	if int64(len(body)) != r.size {
		return bad("size %d, want %d", len(body), r.size)
	}
	r.indexOff = 8 * (runHeaderWords + bloomWords)
	r.payloadOff = r.indexOff + 16*r.count
	if r.sum = word(words - 1); fnvBytes(body[:r.size-8]) != r.sum {
		return bad("checksum mismatch")
	}
	// The checksum vouches for the writer, not the layout: hold the index
	// to what lookup's binary search and forEach's slicing assume — keys
	// ascending, every sleep set inside the payload.
	r.fence = make([]uint64, 0, (r.count+fenceStride-1)/fenceStride)
	for i, prev := int64(0), uint64(0); i < r.count; i++ {
		ent := body[r.indexOff+16*i:]
		key, packed := binary.LittleEndian.Uint64(ent), binary.LittleEndian.Uint64(ent[8:])
		if (i > 0 && key <= prev) || packed>>16+packed&(maxSleepWords-1) > uint64(payloadWords) {
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

// lookup finds fp's stored sleep set: bloom reject, then the block whose
// first key is the last fence key not above fp, read whole and scanned.
// tc counts the lookups that passed the filter and their reads.
func (r *run) lookup(fp uint64, tc *TierCounts) ([]uint64, bool, error) {
	if !r.bloom.has(fp) {
		return nil, false, nil
	}
	tc.DiskLookups.Add(1)
	b, found := slices.BinarySearch(r.fence, fp)
	if !found {
		if b--; b < 0 {
			return nil, false, nil // below the run's first key
		}
	}
	first := int64(b) * fenceStride
	var block [16 * fenceStride]byte
	ents := block[:16*min(r.count-first, fenceStride)]
	tc.DiskReads.Add(1)
	if _, err := r.f.ReadAt(ents, r.indexOff+16*first); err != nil {
		return nil, false, corrupt("run %s: index read: %v", filepath.Base(r.path), err)
	}
	for ent := ents; len(ent) > 0 && binary.LittleEndian.Uint64(ent) <= fp; ent = ent[16:] {
		if binary.LittleEndian.Uint64(ent) < fp {
			continue
		}
		packed := binary.LittleEndian.Uint64(ent[8:])
		n := int(packed & (maxSleepWords - 1))
		if n == 0 {
			return nil, true, nil
		}
		raw := make([]byte, 8*n)
		tc.DiskReads.Add(1)
		if _, err := r.f.ReadAt(raw, r.payloadOff+8*int64(packed>>16)); err != nil {
			return nil, false, corrupt("run %s: payload read: %v", filepath.Base(r.path), err)
		}
		sleep := make([]uint64, n)
		for i := range sleep {
			sleep[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
		return sleep, true, nil
	}
	return nil, false, nil
}

// forEach streams every entry in fingerprint order (compaction and
// tests).
func (r *run) forEach(fn func(fp uint64, sleep []uint64)) error {
	body := make([]byte, r.size)
	if _, err := r.f.ReadAt(body, 0); err != nil {
		return corrupt("run %s: read: %v", filepath.Base(r.path), err)
	}
	for i := int64(0); i < r.count; i++ {
		ent := body[r.indexOff+16*i:]
		fp := binary.LittleEndian.Uint64(ent)
		packed := binary.LittleEndian.Uint64(ent[8:])
		n := int(packed & (maxSleepWords - 1))
		off := int64(packed >> 16)
		var sleep []uint64
		if n > 0 {
			sleep = make([]uint64, n)
			for j := range sleep {
				sleep[j] = binary.LittleEndian.Uint64(body[r.payloadOff+8*(off+int64(j)):])
			}
		}
		fn(fp, sleep)
	}
	return nil
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
