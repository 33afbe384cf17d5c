package linetable

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// model drives a Table and a Go map with the same operations and checks
// that they agree after each one.
type model struct {
	t   *testing.T
	tab Table[uint64]
	ref map[uint64]uint64
}

func newModel(t *testing.T) *model { return &model{t: t, ref: make(map[uint64]uint64)} }

func (m *model) put(k, v uint64) {
	m.tab.Put(k, v)
	m.ref[k] = v
	m.get(k)
}

func (m *model) get(k uint64) {
	m.t.Helper()
	got, ok := m.tab.Get(k)
	want, wantOK := m.ref[k]
	if got != want || ok != wantOK {
		m.t.Fatalf("Get(%#x) = %d, %v; map has %d, %v", k, got, ok, want, wantOK)
	}
}

func (m *model) delete(k uint64) {
	m.t.Helper()
	_, want := m.ref[k]
	delete(m.ref, k)
	if got := m.tab.Delete(k); got != want {
		m.t.Fatalf("Delete(%#x) = %v, map had it: %v", k, got, want)
	}
	m.get(k)
}

func (m *model) clear() {
	m.tab.Clear()
	clear(m.ref)
}

// check compares the whole contents, through Len, Each and a Get of every
// key the map holds.
func (m *model) check() {
	m.t.Helper()
	if m.tab.Len() != len(m.ref) {
		m.t.Fatalf("Len = %d, map has %d", m.tab.Len(), len(m.ref))
	}
	seen := 0
	m.tab.Each(func(k, v uint64) {
		seen++
		if want, ok := m.ref[k]; !ok || want != v {
			m.t.Fatalf("Each visits %#x = %d; map has %d, %v", k, v, want, ok)
		}
	})
	if seen != len(m.ref) {
		m.t.Fatalf("Each visited %d keys, map has %d", seen, len(m.ref))
	}
	for k := range m.ref {
		m.get(k)
	}
	// A copy holds the same slots and shares nothing with the original.
	var c Table[uint64]
	c.Put(1, 1) // something for CopyFrom to overwrite
	c.CopyFrom(&m.tab)
	if c.Len() != m.tab.Len() || !slices.Equal(c.slots, m.tab.slots) {
		m.t.Fatalf("CopyFrom: %d keys in %+v, original has %d in %+v", c.Len(), c.slots, m.tab.Len(), m.tab.slots)
	}
	c.Put(^uint64(0), 1)
	visited := 0
	c.Each(func(uint64, uint64) { visited++ })
	if visited != c.Len() {
		m.t.Fatalf("after CopyFrom and Put: Each visits %d keys, Len is %d", visited, c.Len())
	}
	c.Delete(^uint64(0))
	for k := range m.ref {
		c.Delete(k)
		m.get(k)
	}
}

// TestDifferential runs random operations over key sets shaped like the
// simulator's (consecutive line numbers), like an adversary's (keys whose
// hashes share their top bits) and sparse over all 64 bits, and compares
// with a Go map throughout. Small key sets keep the table dense enough
// that deletes hit the middle of probe chains and chains wrap the end of
// the array.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keySets := map[string]func() uint64{
		"clustered": func() uint64 { return 1<<20 + uint64(rng.Intn(3000)) },
		"small":     func() uint64 { return uint64(rng.Intn(24)) },
		"sparse":    func() uint64 { return rng.Uint64() >> uint(rng.Intn(64)) },
		// Multiples of 2⁵⁸: key·fib keeps only six varying top bits, so
		// in any table of more than 64 slots these keys pile onto 64 homes.
		"colliding": func() uint64 { return uint64(rng.Intn(200)) << 58 },
	}
	names := make([]string, 0, len(keySets))
	for name := range keySets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		key := keySets[name]
		t.Run(name, func(t *testing.T) {
			m := newModel(t)
			for i := 0; i < 120_000; i++ {
				switch r := rng.Intn(100); {
				case r < 45:
					m.put(key(), rng.Uint64())
				case r < 70:
					m.get(key())
				case r < 99:
					m.delete(key())
				case rng.Intn(40) == 0:
					m.clear()
				}
				if i%5000 == 0 {
					m.check()
				}
			}
			m.check()
		})
	}
}

// TestWrapAndMidChainDelete builds one probe chain that starts in the
// last slot of the smallest table and wraps to the first, then deletes
// from its middle: the keys behind the hole must stay reachable.
func TestWrapAndMidChainDelete(t *testing.T) {
	var probe Table[uint64]
	probe.Put(0, 0) // allocate the 8-slot array to learn the hash
	var last []uint64
	for k := uint64(1); len(last) < 4; k++ {
		if probe.home(k) == len(probe.slots)-1 {
			last = append(last, k)
		}
	}
	m := newModel(t)
	for i, k := range last {
		m.put(k, uint64(i))
	}
	if len(m.tab.slots) != 8 || !m.tab.slots[7].full || !m.tab.slots[0].full || !m.tab.slots[2].full {
		t.Fatalf("chain does not wrap: %+v", m.tab.slots)
	}
	m.delete(last[1])
	m.check()
	if m.tab.slots[2].full {
		t.Fatalf("the chain's tail did not shift back: %+v", m.tab.slots)
	}
	m.delete(last[0])
	m.check()
	m.put(last[1], 9)
	m.check()
}

// TestZeroKey covers the key that equals an empty slot's.
func TestZeroKey(t *testing.T) {
	m := newModel(t)
	m.get(0)
	m.delete(0)
	m.put(7, 1)
	m.get(0)
	m.delete(0)
	m.put(0, 5)
	m.delete(0)
	m.check()
}

// FuzzLineTable interprets the input as a program: each three bytes are
// an operation and a 16-bit key (spread so that some keys collide).
func FuzzLineTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 2, 2, 0, 1, 1, 0, 2})
	f.Add([]byte("put get delete clear put put put delete"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		m := newModel(t)
		for ; len(prog) >= 3; prog = prog[3:] {
			k := uint64(prog[1]) | uint64(prog[2])<<8
			if k&1 == 1 {
				k <<= 50 // few distinct top bits: long probe chains
			}
			switch prog[0] % 8 {
			case 0, 1, 2:
				m.put(k, uint64(len(prog)))
			case 3, 4:
				m.get(k)
			case 5, 6:
				m.delete(k)
			case 7:
				if prog[1] == 0 {
					m.clear()
				}
			}
		}
		m.check()
	})
}
