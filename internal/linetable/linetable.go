// Package linetable is the tag store under the unbounded snooping cache
// and modified line table: an open-addressing hash table keyed by line
// number. Every controller on a bus looks the passing line up in both, so
// the lookup is the most executed operation of the timed machine; a
// multiplicative hash and a linear probe over one flat array cost a
// fraction of a Go map access and allocate only when the table grows.
//
// Slot order is a function of the sequence of operations alone — no
// per-process seed — so walking the table (Each) is deterministic, which
// a Go map range is not.
//
//multicube:deterministic
package linetable

// fib is 2⁶⁴/φ rounded to odd: the top bits of key·fib spread clustered
// keys (consecutive line numbers) evenly over the table.
const fib = 0x9e3779b97f4a7c15

type slot[V any] struct {
	key  uint64
	val  V
	full bool
}

// Table maps 64-bit keys to values of type V. The zero value is an empty
// table ready for use.
type Table[V any] struct {
	slots []slot[V] // length zero or a power of two, at most 3/4 full
	n     int
	shift uint // 64 − log₂ len(slots): home keeps the top bits
}

func (t *Table[V]) home(key uint64) int { return int(key * fib >> t.shift) }

// Len reports the number of keys present.
func (t *Table[V]) Len() int { return t.n }

// Get returns the value stored under key.
func (t *Table[V]) Get(key uint64) (val V, ok bool) {
	if t.n == 0 {
		return val, false
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.full {
			return val, false
		}
		if s.key == key {
			return s.val, true
		}
	}
}

// Put stores val under key, replacing any value already there.
func (t *Table[V]) Put(key uint64, val V) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.full {
			*s = slot[V]{key, val, true}
			t.n++
			return
		}
		if s.key == key {
			s.val = val
			return
		}
	}
}

// grow doubles the array and reinserts every key in slot order. An empty
// table starts at 8 slots, in the array CopyFrom left it when that has
// room.
func (t *Table[V]) grow() {
	old := t.slots
	if len(old) == 0 {
		t.slots, t.shift = append(old[:0], make([]slot[V], 8)...), 64-3
	} else {
		t.slots, t.shift = make([]slot[V], 2*len(old)), t.shift-1
	}
	t.n = 0
	for i := range old {
		if old[i].full {
			t.Put(old[i].key, old[i].val)
		}
	}
}

// Delete removes key, reporting whether it was present. The keys probing
// past the freed slot shift back into it, so the table holds no
// tombstones and a lookup's cost does not depend on what was deleted.
func (t *Table[V]) Delete(key uint64) bool {
	if t.n == 0 {
		return false
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != key {
		if !t.slots[i].full {
			return false
		}
		i = (i + 1) & mask
	}
	if !t.slots[i].full {
		return false // key is zero and so is the empty slot's
	}
	for j := (i + 1) & mask; t.slots[j].full; j = (j + 1) & mask {
		// The key at j may fill the hole at i only if i lies on its probe
		// path, that is, no farther back from j than its home slot.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.n--
	return true
}

// Clear removes every key, keeping the array.
func (t *Table[V]) Clear() {
	clear(t.slots)
	t.n = 0
}

// CopyFrom makes t an exact copy of src, slot for slot, reusing t's array
// when it is large enough; a copy of an empty table keeps the array for
// its first Put. The values are copied as values.
func (t *Table[V]) CopyFrom(src *Table[V]) {
	t.slots = append(t.slots[:0], src.slots...)
	t.n, t.shift = src.n, src.shift
}

// Each visits every key in slot order. fn must not modify the table.
func (t *Table[V]) Each(fn func(key uint64, val V)) {
	for i := range t.slots {
		if t.slots[i].full {
			fn(t.slots[i].key, t.slots[i].val)
		}
	}
}
