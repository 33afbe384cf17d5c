package statespace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// listRun is what appendKeys says a run holds.
func listRun(t testing.TB, r *run) []uint64 {
	t.Helper()
	keys, err := r.appendKeys(nil)
	if err != nil {
		t.Fatalf("appendKeys: %v", err)
	}
	if int64(len(keys)) != r.count {
		t.Fatalf("appendKeys read %d keys of %d", len(keys), r.count)
	}
	return keys
}

// checkLookups holds lookup to appendKeys: every listed key is found in
// one read, and the keys around it, below the first and above the last
// are absent.
func checkLookups(t testing.TB, r *run) {
	t.Helper()
	keys := listRun(t, r)
	present := make(map[uint64]bool, len(keys))
	for _, fp := range keys {
		present[fp] = true
	}
	var tc TierCounts
	for _, fp := range keys {
		before := tc.DiskReads
		if ok, err := r.lookup(fp, &tc); err != nil || !ok {
			t.Fatalf("lookup %#x: %v, %v; appendKeys lists it", fp, ok, err)
		}
		if reads := tc.DiskReads - before; reads != 1 {
			t.Fatalf("lookup %#x made %d reads, want 1", fp, reads)
		}
	}
	absent := []uint64{0, ^uint64(0)}
	for _, fp := range keys {
		absent = append(absent, fp-1, fp+1)
	}
	for _, fp := range absent {
		if present[fp] {
			continue
		}
		if ok, err := r.lookup(fp, &tc); ok || err != nil {
			t.Fatalf("lookup of absent %#x: %v, %v", fp, ok, err)
		}
	}
	if l, n := tc.DiskLookups, tc.DiskReads; n > l {
		t.Fatalf("%d reads for %d lookups past the filter", n, l)
	}
}

// saturate makes the run's filter pass everything, so that absent keys
// reach the fence too.
func saturate(r *run) {
	for i := range r.bloom.words {
		r.bloom.words[i] = ^uint64(0)
	}
}

// TestLookupAgreesWithForEach holds lookup to appendKeys, the reader that
// replaced forEach, at the fence's edges: no entry, one, a block less one,
// exactly one block, one more, two blocks, many. With payload, the run's
// keys are followed by a payload word, as a version-1 run's were, and the
// image is refused as corrupt: the size arithmetic tells the layouts apart.
func TestLookupAgreesWithForEach(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 64, 4000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i+1) * 0x0004_1893_74bc_6a7f // ascending, never adjacent
		}
		for _, payload := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d/payload=%v", n, payload), func(t *testing.T) {
				r, err := writeRun(t.TempDir(), 0, 1, keys)
				if err != nil {
					t.Fatal(err)
				}
				defer r.close()
				if payload {
					image, err := os.ReadFile(r.path)
					if err != nil {
						t.Fatal(err)
					}
					image = append(image[:len(image)-8], le(1)...)
					refused(t, binary.LittleEndian.AppendUint64(image, fnvBytes(image)), 0)
					return
				}
				if want := (n + fenceStride - 1) / fenceStride; len(r.fence) != want {
					t.Fatalf("fence of %d keys for %d entries, want %d", len(r.fence), n, want)
				}
				if got := listRun(t, r); len(got) != n {
					t.Fatalf("appendKeys lists %d keys of %d written", len(got), n)
				}
				checkLookups(t, r)
				saturate(r)
				checkLookups(t, r)
			})
		}
	}
}

// refused requires openRun to refuse a run image of the given shard as
// corrupt.
func refused(t *testing.T, image []byte, shard int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), runName(shard, 2))
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := openRun(path, shard); !errors.Is(err, ErrCorrupt) {
		if r != nil {
			r.close()
		}
		t.Fatalf("openRun: %v, want ErrCorrupt", err)
	}
}

// TestOpensParentRun: testdata/parent_shard-03-000007.run is a version-1
// run, 70 keys with their payload words, as an older build spilled it. The
// format changed, so it is refused as corrupt, never misread — also with
// its version word forged to the current one and its trailer recomputed:
// a resume over such a checkpoint searches afresh.
func TestOpensParentRun(t *testing.T) {
	image, err := os.ReadFile(filepath.Join("testdata", "parent_shard-03-000007.run"))
	if err != nil {
		t.Fatal(err)
	}
	refused(t, image, 3)
	forged := append([]byte(nil), image[:len(image)-8]...)
	binary.LittleEndian.PutUint32(forged[8:], runVersion)
	refused(t, binary.LittleEndian.AppendUint64(forged, fnvBytes(forged)), 3)
}
