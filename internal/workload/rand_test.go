package workload

import (
	"math"
	"testing"

	"multicube/internal/sim"
)

// expTime is ExpTime's body for the draw k and a mean that need not be a
// whole number of nanoseconds.
func expTime(k uint64, mean float64) sim.Time {
	if t, ok := expFast(k, mean); ok {
		return t
	}
	return sim.Time(expValue(k, mean))
}

// logTime is the think time as the generator drew it with math.Log, the
// 20×-mean cap included: ExpTime must equal it for every draw k (the
// high 53 bits of one Uint64) and every mean ≥ 0.
func logTime(k uint64, mean float64) sim.Time {
	u := float64(k) / (1 << 53)
	if u >= 0.999999 {
		u = 0.999999
	}
	x := -mean * math.Log(1-u)
	if x > 20*mean {
		x = 20 * mean
	}
	return sim.Time(x)
}

// TestExpTimeMatchesLog holds ExpTime to math.Log's think time on 10⁸
// draws, 2·10⁷ consecutive ones at each of five means, and the fast path to
// serving at least 99.9 % of them at 10 µs: a slack too wide would send
// draws to math.Log unseen. The draws at 0, the clamp and their
// neighbours are checked directly, and so are means up to 10¹¹ ns,
// where the cubic's error is wide enough that a slack too narrow
// truncates to the wrong nanosecond within a few thousand draws.
func TestExpTimeMatchesLog(t *testing.T) {
	draws := 20_000_000
	if testing.Short() {
		draws = 200_000
	}
	for _, mean := range []float64{0, 1, 7, float64(10 * sim.Microsecond), 123456.7} {
		r := NewRand(uint64(mean) + 1)
		fast := 0
		for range draws {
			k := r.Uint64() >> 11
			if got, want := expTime(k, mean), logTime(k, mean); got != want {
				t.Fatalf("mean %g, draw %#x: ExpTime %d, math.Log %d", mean, k, got, want)
			}
			if _, ok := expFast(k, mean); ok {
				fast++
			}
		}
		share := float64(fast) / float64(draws)
		t.Logf("mean %g: %.6f of %d draws on the fast path", mean, share, draws)
		if mean == float64(10*sim.Microsecond) && share < 0.999 {
			t.Errorf("mean %g: fast path serves %.6f of draws, want ≥ 0.999", mean, share)
		}
	}
	edges := []uint64{0, 1, 2, 3, expClampK - 2, expClampK - 1, expClampK, expClampK + 1, 1<<53 - 1}
	for _, mean := range []float64{0, 1, 7, 1e4, 123456.7, 1e6, 1e9, 1<<40 - 1, 1 << 40, 1e15} {
		for _, k := range edges {
			if got, want := expTime(k, mean), logTime(k, mean); got != want {
				t.Errorf("mean %g, draw %#x: ExpTime %d, math.Log %d", mean, k, got, want)
			}
		}
	}
	if float64(expClampK)/(1<<53) < 0.999999 || float64(expClampK-1)/(1<<53) >= 0.999999 {
		t.Errorf("expClampK %#x is not the first draw Exp clamps", uint64(expClampK))
	}
	for _, mean := range []float64{1e6, 1e8, 1e10, 1e11} {
		r := NewRand(uint64(mean))
		for range 100_000 {
			k := r.Uint64() >> 11
			if got, want := expTime(k, mean), logTime(k, mean); got != want {
				t.Fatalf("mean %g, draw %#x: ExpTime %d, math.Log %d", mean, k, got, want)
			}
		}
	}
	for _, mean := range []sim.Time{0, 1, 7, 10 * sim.Microsecond} {
		a, b := NewRand(5), NewRand(5)
		for range 1_000_000 {
			if got, want := a.ExpTime(mean), sim.Time(b.Exp(float64(mean))); got != want {
				t.Fatalf("mean %d: ExpTime %d, Exp %d", mean, got, want)
			}
		}
	}
}

// FuzzExpTime holds ExpTime to math.Log's think time for any draw and
// any mean ≥ 0, whole nanoseconds or not.
func FuzzExpTime(f *testing.F) {
	for _, k := range []uint64{0, 1, expClampK, 1<<53 - 1, 0x123456789abcd} {
		for _, mean := range []float64{0.3, 10_000, 123456.7, 3e11, 1e300} {
			f.Add(k<<11, mean)
		}
	}
	f.Fuzz(func(t *testing.T, k uint64, mean float64) {
		k >>= 11
		mean = math.Abs(mean)
		if got, want := expTime(k, mean), logTime(k, mean); got != want {
			t.Errorf("mean %g, draw %#x: ExpTime %d, math.Log %d", mean, k, got, want)
		}
	})
}

var sinkTime sim.Time

// BenchmarkExpTime prices one think time at the benchmark's 10 µs mean,
// drawn by ExpTime and by truncating Exp.
func BenchmarkExpTime(b *testing.B) {
	r := NewRand(1)
	b.Run("ExpTime", func(b *testing.B) {
		for range b.N {
			sinkTime += r.ExpTime(10 * sim.Microsecond)
		}
	})
	b.Run("Exp", func(b *testing.B) {
		for range b.N {
			sinkTime += sim.Time(r.Exp(float64(10 * sim.Microsecond)))
		}
	})
}

var sinkRef ref

// BenchmarkGenNext prices one reference's draw on the des-private mix.
func BenchmarkGenNext(b *testing.B) {
	cfg := GenConfig{Seed: 1, Think: 10 * sim.Microsecond, Exponential: true,
		SharedLines: 64, PrivateLines: 16, PShared: 0.01, PWrite: 0.3, Requests: 20000}
	g := newGen(&cfg, 3, 64, 16)
	for range b.N {
		g.next(&sinkRef)
	}
}
