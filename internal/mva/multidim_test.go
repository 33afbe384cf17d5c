package mva

import (
	"math"
	"testing"
)

func TestMultiValidation(t *testing.T) {
	bad := []MultiParams{
		{N: 1, K: 2, RequestRate: 25},
		{N: 4, K: 0, RequestRate: 25},
		{N: 1000, K: 4, RequestRate: 25},
	}
	for i, p := range bad {
		if _, err := SolveMulti(p); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMultiMatchesTwoDimensionalShape(t *testing.T) {
	// The k=2 multidimensional model and the detailed 2-D solver use
	// different approximations but must agree on the regime: within a
	// few points of efficiency at the design point.
	p2 := Defaults(32)
	p2.RequestRate = 15
	detailed := MustSolve(p2).Efficiency

	pk := MultiDefaults(32, 2)
	pk.RequestRate = 15
	general := MustSolveMulti(pk).Efficiency

	if math.Abs(detailed-general) > 0.08 {
		t.Errorf("k=2 models diverge: detailed %f vs general %f", detailed, general)
	}
}

func TestMultiLightLoadIdeal(t *testing.T) {
	p := MultiDefaults(10, 3)
	p.RequestRate = 0.01
	if eff := MustSolveMulti(p).Efficiency; eff < 0.99 {
		t.Errorf("light-load efficiency = %f", eff)
	}
}

func TestMultiEfficiencyMonotoneInRate(t *testing.T) {
	for _, cfg := range []struct{ n, k int }{{32, 2}, {10, 3}, {2, 10}} {
		prev := 1.1
		for _, rate := range RateSweep() {
			p := MultiDefaults(cfg.n, cfg.k)
			p.RequestRate = rate
			eff := MustSolveMulti(p).Efficiency
			if eff >= prev {
				t.Errorf("n=%d k=%d rate=%g: eff %f not below %f", cfg.n, cfg.k, rate, eff, prev)
			}
			prev = eff
		}
	}
}

func TestHypercubePaysPathLength(t *testing.T) {
	// Section 6: per-processor bandwidth k/n grows with k, but the path
	// length also grows as k and invalidations cost (N-1)/(n-1). At
	// light load the hypercube's long paths dominate: the 2-D machine
	// has a better response time at equal processor count.
	p2 := MultiDefaults(32, 2)
	p10 := MultiDefaults(2, 10)
	p2.RequestRate, p10.RequestRate = 5, 5
	r2, r10 := MustSolveMulti(p2), MustSolveMulti(p10)
	if r10.Response <= r2.Response {
		t.Errorf("hypercube response %f not above 2-D %f at light load", r10.Response, r2.Response)
	}
}

func TestHypercubeBandwidthAtSaturation(t *testing.T) {
	// The flip side: with k/n = 5 the hypercube has vastly more bus
	// bandwidth per processor, so it saturates much later than the 2-D
	// machine (k/n = 1/16).
	heavy := 200.0
	p2 := MultiDefaults(32, 2)
	p10 := MultiDefaults(2, 10)
	p2.RequestRate, p10.RequestRate = heavy, heavy
	r2, r10 := MustSolveMulti(p2), MustSolveMulti(p10)
	if r10.Efficiency <= r2.Efficiency {
		t.Errorf("hypercube efficiency %f not above 2-D %f at heavy load", r10.Efficiency, r2.Efficiency)
	}
}

func TestDimensionSweepRenders(t *testing.T) {
	f := DimensionSweep([]float64{5, 25, 50})
	out := f.Render()
	for _, want := range []string{"n=32 k=2", "n=10 k=3", "n=2 k=10"} {
		if !contains(out, want) {
			t.Errorf("sweep missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
