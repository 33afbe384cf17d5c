package fphash

import (
	"math/bits"
	"sort"
	"testing"
)

func sum(words ...uint64) uint64 {
	h := New()
	for _, w := range words {
		h.Word(w)
	}
	return h.Sum()
}

// splitmix is the tests' source of unstructured words.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// TestNoStructuredCollisions hashes the kinds of short sequences the
// fingerprint paths feed — small integers, sequences one bit apart, one
// multiset in every order — and requires every hash distinct. The
// families differ in length or in word range, so no sequence occurs
// twice and an equal pair is a collision.
func TestNoStructuredCollisions(t *testing.T) {
	var hashes []uint64
	// Small integers: every sequence of length 1 and 2 over [0, 1024) and
	// of length 3 over [0, 128).
	for a := uint64(0); a < 1024; a++ {
		hashes = append(hashes, sum(a))
		for b := uint64(0); b < 1024; b++ {
			hashes = append(hashes, sum(a, b))
		}
	}
	for a := uint64(0); a < 128; a++ {
		for b := uint64(0); b < 128; b++ {
			for c := uint64(0); c < 128; c++ {
				hashes = append(hashes, sum(a, b, c))
			}
		}
	}
	// Single-bit differences: 256 unstructured four-word bases, each with
	// every one of its 256 bits flipped.
	rng := splitmix(1)
	for i := 0; i < 256; i++ {
		base := []uint64{rng.next(), rng.next(), rng.next(), rng.next()}
		hashes = append(hashes, sum(base...))
		for w := range base {
			for b := 0; b < 64; b++ {
				base[w] ^= 1 << b
				hashes = append(hashes, sum(base...))
				base[w] ^= 1 << b
			}
		}
	}
	// Permuted order: all 8! orders of eight small words, and of eight
	// unstructured ones.
	for _, set := range [][]uint64{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{rng.next(), rng.next(), rng.next(), rng.next(), rng.next(), rng.next(), rng.next(), rng.next()},
	} {
		permute(set, 0, func(p []uint64) { hashes = append(hashes, sum(p...)) })
	}

	if len(hashes) < 1<<21 {
		t.Fatalf("only %d sequences, want at least 2^21", len(hashes))
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	for i := 1; i < len(hashes); i++ {
		if hashes[i] == hashes[i-1] {
			t.Fatalf("collision on %#x among %d structured sequences", hashes[i], len(hashes))
		}
	}
}

func permute(s []uint64, k int, visit func([]uint64)) {
	if k == len(s) {
		visit(s)
		return
	}
	for i := k; i < len(s); i++ {
		s[k], s[i] = s[i], s[k]
		permute(s, k+1, visit)
		s[k], s[i] = s[i], s[k]
	}
}

// TestAvalanche flips every input bit of sequences one to four words
// long, half of small integers and half unstructured, and requires 20 of
// the 64 output bits to change on average.
func TestAvalanche(t *testing.T) {
	rng := splitmix(2)
	flipped, flips := 0, 0
	for trial := 0; trial < 2000; trial++ {
		words := make([]uint64, 1+trial%4)
		for i := range words {
			words[i] = rng.next()
			if trial%2 == 0 {
				words[i] &= 0xffff
			}
		}
		base := sum(words...)
		for w := range words {
			for b := 0; b < 64; b++ {
				words[w] ^= 1 << b
				flipped += bits.OnesCount64(sum(words...) ^ base)
				words[w] ^= 1 << b
				flips++
			}
		}
	}
	if mean := float64(flipped) / float64(flips); mean < 20 {
		t.Fatalf("mean avalanche %.2f of 64 output bits per flipped input bit, want at least 20", mean)
	}
}

// TestTopBitsUniform buckets the hashes of 2^18 small-integer triples by
// their top 6 bits, the bits statespace shards on, and requires every
// bucket within a factor of two of uniform.
func TestTopBitsUniform(t *testing.T) {
	var hist [64]int
	for a := uint64(0); a < 64; a++ {
		for b := uint64(0); b < 64; b++ {
			for c := uint64(0); c < 64; c++ {
				hist[sum(a, b, c)>>58]++
			}
		}
	}
	const uniform = 64 * 64 * 64 / 64
	for bucket, n := range hist {
		if n < uniform/2 || n > uniform*2 {
			t.Fatalf("top-6-bit bucket %d holds %d of %d hashes, uniform is %d", bucket, n, 64*64*64, uniform)
		}
	}
}

// TestLengthAndBitWords pins the two conventions callers rely on: a
// trailing zero word changes the hash, and Bit is Word(0) or Word(1).
func TestLengthAndBitWords(t *testing.T) {
	if sum() == sum(0) || sum(7) == sum(7, 0) {
		t.Fatal("a trailing zero word does not change the hash")
	}
	h, g := New(), New()
	h.Bit(true)
	h.Bit(false)
	g.Word(1)
	g.Word(0)
	if h != g {
		t.Fatalf("Bit(true),Bit(false) = %#x, Word(1),Word(0) = %#x", h.Sum(), g.Sum())
	}
}
