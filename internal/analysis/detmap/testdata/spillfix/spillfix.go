// Package spillfix models internal/statespace's map-iteration idioms for
// the detmap analyzer. Spill and compaction walk fingerprint-keyed hot
// maps whose iteration order must never reach a run file (run files are
// checksummed and compared across resumes), so every walk
// collects-then-sorts.
//
//multicube:deterministic
package spillfix

import "sort"

type ent struct {
	fp    uint64
	sleep []uint64
}

// spill is the disciplined walk statespace.spillShard uses: hot-map
// order is erased by the sort before anything is written.
func spill(hot map[uint64][]uint64) []ent {
	ents := make([]ent, 0, len(hot))
	for fp, sleep := range hot { // collect-then-sort: not flagged
		ents = append(ents, ent{fp: fp, sleep: sleep})
	}
	sort.Slice(ents, func(a, b int) bool { return ents[a].fp < ents[b].fp })
	return ents
}

// spillUnsorted would write a run in randomized order — the exact bug
// the pass exists to catch in the store.
func spillUnsorted(hot map[uint64][]uint64) []ent {
	var ents []ent
	for fp, sleep := range hot { // want `range over map in a deterministic package`
		ents = append(ents, ent{fp: fp, sleep: sleep})
	}
	return ents
}

// firstDirty leaks map order into a victim choice (the store instead
// scans shards by index).
func firstDirty(dirty map[int]uint64) int {
	for i := range dirty { // want `range over map`
		return i
	}
	return -1
}
