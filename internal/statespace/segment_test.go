package statespace

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
)

// listRun is what forEach says a run holds.
func listRun(t testing.TB, r *run) []runEnt {
	t.Helper()
	var ents []runEnt
	if err := r.forEach(func(fp uint64, sleep []uint64) { ents = append(ents, runEnt{fp, sleep}) }); err != nil {
		t.Fatalf("forEach: %v", err)
	}
	if int64(len(ents)) != r.count {
		t.Fatalf("forEach walked %d entries of %d", len(ents), r.count)
	}
	return ents
}

// checkLookups holds lookup to forEach: every listed key comes back with
// exactly its sleep set, in one read (two with a payload), and the keys
// around it, below the first and above the last are absent.
func checkLookups(t testing.TB, r *run) {
	t.Helper()
	ents := listRun(t, r)
	present := make(map[uint64]bool, len(ents))
	for _, e := range ents {
		present[e.fp] = true
	}
	var tc TierCounts
	for _, e := range ents {
		before := tc.DiskReads.Load()
		got, ok, err := r.lookup(e.fp, &tc)
		if err != nil || !ok || len(got) != len(e.sleep) || (len(got) > 0 && !reflect.DeepEqual(got, e.sleep)) {
			t.Fatalf("lookup %#x: %v, %v, %v; forEach lists %v", e.fp, got, ok, err, e.sleep)
		}
		want := uint64(1)
		if len(e.sleep) > 0 {
			want = 2
		}
		if reads := tc.DiskReads.Load() - before; reads != want {
			t.Fatalf("lookup %#x with %d sleep words made %d reads, want %d", e.fp, len(e.sleep), reads, want)
		}
	}
	absent := []uint64{0, ^uint64(0)}
	for _, e := range ents {
		absent = append(absent, e.fp-1, e.fp+1)
	}
	for _, fp := range absent {
		if present[fp] {
			continue
		}
		if got, ok, err := r.lookup(fp, &tc); ok || err != nil || got != nil {
			t.Fatalf("lookup of absent %#x: %v, %v, %v", fp, got, ok, err)
		}
	}
	if l, n := tc.DiskLookups.Load(), tc.DiskReads.Load(); n > 2*l {
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

// TestLookupAgreesWithForEach covers the fence's edges: no entry, one, a
// block less one, exactly one block, one more, two blocks, many.
func TestLookupAgreesWithForEach(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 64, 4000} {
		for _, payload := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d/payload=%v", n, payload), func(t *testing.T) {
				ents := make([]runEnt, n)
				for i := range ents {
					ents[i].fp = uint64(i+1) * 0x0004_1893_74bc_6a7f // ascending, never adjacent
					if payload && i%3 != 0 {
						ents[i].sleep = []uint64{uint64(i), ^uint64(i), 7}[:1+i%3]
					}
				}
				r, err := writeRun(t.TempDir(), 0, 1, ents)
				if err != nil {
					t.Fatal(err)
				}
				defer r.close()
				if want := (n + fenceStride - 1) / fenceStride; len(r.fence) != want {
					t.Fatalf("fence of %d keys for %d entries, want %d", len(r.fence), n, want)
				}
				if got := listRun(t, r); len(got) != n {
					t.Fatalf("forEach lists %d entries of %d written", len(got), n)
				}
				checkLookups(t, r)
				saturate(r)
				checkLookups(t, r)
			})
		}
	}
}

// parentFixtureEnts is what the commit before the fence wrote into
// testdata/parent_shard-03-000007.run with its writeRun.
func parentFixtureEnts() []runEnt {
	var ents []runEnt
	for i := uint64(0); i < 70; i++ {
		e := runEnt{fp: (i + 1) * 0x0123456789abcdef}
		if i%3 == 1 {
			e.sleep = []uint64{i, i * i, ^i}[:1+i%3]
		}
		ents = append(ents, e)
	}
	return ents
}

// TestOpensParentRun: the format did not change, so a run an older build
// spilled (any checkpoint on disk) opens and answers as it always did.
func TestOpensParentRun(t *testing.T) {
	r, err := openRun(filepath.Join("testdata", "parent_shard-03-000007.run"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	want := parentFixtureEnts()
	got := listRun(t, r)
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].fp != want[i].fp || len(got[i].sleep) != len(want[i].sleep) || (len(want[i].sleep) > 0 && !reflect.DeepEqual(got[i].sleep, want[i].sleep)) {
			t.Fatalf("entry %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	checkLookups(t, r)
	saturate(r)
	checkLookups(t, r)
}
