// Package workload drives the simulated machines: a parameterized
// synthetic reference generator (the statistical workloads the paper's
// evaluation assumes, Section 5: "the simulation must be based on
// statistical distributions of references and reference types"), plus
// reusable parallel kernels for the examples and integration tests.
package workload

import (
	"math"

	"multicube/internal/sim"
)

// Rand is SplitMix64: a tiny, fast, seedable PRNG. All randomness in the
// simulator flows through explicit seeds so runs are reproducible.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next raw value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n), n > 0, masking a power of two.
func (r *Rand) Intn(n int) int {
	v := r.Uint64()
	if n > 0 && n&(n-1) == 0 {
		return int(v & uint64(n-1))
	}
	return int(v % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean
// (≥ 0), via inverse transform. The uniform draw is clamped at 0.999999,
// which caps the value at ln 10⁶ ≈ 13.8× the mean.
func (r *Rand) Exp(mean float64) float64 { return expValue(r.Uint64()>>11, mean) }

// ExpTime returns sim.Time(r.Exp(float64(mean))), bit for bit, mostly
// without calling math.Log (see expFast).
func (r *Rand) ExpTime(mean sim.Time) sim.Time {
	k, m := r.Uint64()>>11, float64(mean)
	if t, ok := expFast(k, m); ok {
		return t
	}
	return sim.Time(expValue(k, m))
}

// expValue is Exp's value for the 53-bit draw k, u = k/2⁵³.
func expValue(k uint64, mean float64) float64 {
	u := float64(k) / (1 << 53)
	if u >= 0.999999 {
		u = 0.999999
	}
	return -mean * math.Log(1-u)
}

// expClampK/2⁵³ is 0.999999 rounded to a float64, where Exp's clamp bites.
const expClampK = uint64(float64(0.999999) * (1 << 53))

// expSlack bounds, per unit of mean, the distance from expFast's y to
// expValue: the cubic's error |z|⁴/4/(1−|z|) ≤ 0.9942·2⁻³⁸, plus 2⁻⁴⁴ for
// math.Log's ulp and both sides' roundings (about 10⁻¹⁴ up to 13.9).
const expSlack = 0x1p-38 + 0x1p-44

// expTable[j] is 1/c, rounded, and −ln of that, for c = 1 + (j+½)/256.
var expTable = func() (t [256]struct{ inv, log float64 }) {
	for j := range t {
		t[j].inv = 1 / (1 + (float64(j)+0.5)/256)
		t[j].log = -math.Log(t[j].inv)
	}
	return t
}()

// expFast is expValue(k, mean) truncated to nanoseconds, without a log,
// and whether it is sure to be exact. With 1−u = m/2⁵³ and m = 2ᵉ·f, f in
// [1, 2), −ln(1−u) = (53−e)·ln 2 − ln c − ln(1+z): c is the midpoint for
// f's leading 8 fraction bits, |z| = |f/c − 1| ≤ 2⁻⁹/(1+2⁻⁹), and ln(1+z)
// is the cubic z − z²/2 + z³/3. y is kept only if it lies more than
// mean·expSlack from every integer (never for a mean ≥ 2.7·10¹¹ or NaN).
func expFast(k uint64, mean float64) (sim.Time, bool) {
	b := math.Float64bits(float64(int64(1<<53 - min(k, expClampK))))
	t := &expTable[b>>44&0xff]
	z := math.Float64frombits(b&(1<<52-1)|1023<<52)*t.inv - 1
	y := mean * ((float64(53+1023-int(b>>52))*math.Ln2 - t.log - z) + z*z*(0.5-z*(1.0/3)))
	frac, d := y-float64(int64(y)), mean*expSlack
	return sim.Time(int64(y)), frac > d && 1-frac > d
}
