package mva

import (
	"strings"
	"testing"
)

// dims is Figure 2's point on an n^k machine at the given rate.
func dims(n, k int, rate float64) Params {
	p := Defaults(n)
	p.K = k
	p.RequestRate = rate
	return p
}

func TestMultiValidation(t *testing.T) {
	bad := []Params{
		dims(1, 2, 25),
		dims(4, 0, 25),
		dims(1000, 4, 25), // 10¹² processors
	}
	for i, p := range bad {
		if _, err := Solve(p); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := Solve(dims(1000, 3, 25)); err != nil {
		t.Errorf("10⁹ processors rejected: %v", err)
	}
}

func TestDimensionSweepTwoIsFigure2(t *testing.T) {
	// The sweep's k = 2 machine is Figure 2's n = 32: one model, so one
	// number at every rate.
	k2 := DimensionSweep(nil).Series("n=32 k=2 (N=1024)").Points
	fig2 := Figure2(nil).Series("n=32 (N=1024)").Points
	for _, rate := range RateSweep() {
		if k2[rate] != fig2[rate] {
			t.Errorf("rate %g: k=2 sweep %v, Figure 2 %v", rate, k2[rate], fig2[rate])
		}
	}
}

func TestMultiLightLoadIdeal(t *testing.T) {
	if eff := MustSolve(dims(10, 3, 0.01)).Efficiency; eff < 0.99 {
		t.Errorf("light-load efficiency = %f", eff)
	}
}

func TestMultiEfficiencyMonotoneInRate(t *testing.T) {
	for _, cfg := range []struct{ n, k int }{{32, 2}, {10, 3}, {2, 10}} {
		prev := 1.1
		for _, rate := range RateSweep() {
			eff := MustSolve(dims(cfg.n, cfg.k, rate)).Efficiency
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
	r2, r10 := MustSolve(dims(32, 2, 5)), MustSolve(dims(2, 10, 5))
	if r10.Response <= r2.Response {
		t.Errorf("hypercube response %f not above 2-D %f at light load", r10.Response, r2.Response)
	}
}

func TestHypercubeBandwidthAtSaturation(t *testing.T) {
	// The flip side: with k/n = 5 the hypercube has vastly more bus
	// bandwidth per processor, so it saturates much later than the 2-D
	// machine (k/n = 1/16).
	r2, r10 := MustSolve(dims(32, 2, 200)), MustSolve(dims(2, 10, 200))
	if r10.Efficiency <= r2.Efficiency {
		t.Errorf("hypercube efficiency %f not above 2-D %f at heavy load", r10.Efficiency, r2.Efficiency)
	}
}

func TestDimensionSweepRenders(t *testing.T) {
	out := DimensionSweep([]float64{5, 25, 50}).Render()
	for _, want := range []string{"n=32 k=2", "n=10 k=3", "n=2 k=10"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep missing %q:\n%s", want, out)
		}
	}
}
