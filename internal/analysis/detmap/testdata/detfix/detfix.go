// Package detfix exercises the detmap analyzer: map ranges in a
// deterministic package and the collect-then-sort escape.
//
//multicube:deterministic
package detfix

import (
	"sort"
)

func sum(m map[int]int) int {
	s := 0
	for k := range m { // want `range over map in a deterministic package`
		s += m[k]
	}
	return s
}

func firstKey(m map[string]bool) string {
	for k := range m { // want `range over map`
		return k
	}
	return ""
}

func sortedKeys(m map[int]int) []int {
	var keys []int
	for k := range m { // collect-then-sort: not flagged
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func sortedPairs(m map[uint64]uint64) []uint64 {
	var out []uint64
	for k, v := range m { // collect-then-sort via sort.Slice
		out = append(out, k<<32|v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func collectNoSort(m map[int]int) []int {
	var keys []int
	for k := range m { // want `range over map` — collected but never sorted
		keys = append(keys, k)
	}
	return keys
}

func sliceRange(xs []int) int {
	s := 0
	for _, x := range xs { // slices iterate deterministically
		s += x
	}
	return s
}
