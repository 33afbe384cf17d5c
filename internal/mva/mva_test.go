package mva

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidation(t *testing.T) {
	// Each case is Defaults(8) with one field broken, so it fails for the
	// rule it names.
	for name, spoil := range map[string]func(*Params){
		"n":           func(p *Params) { p.N = 1 },
		"block":       func(p *Params) { p.BlockWords = 0 },
		"rate":        func(p *Params) { p.RequestRate = 0 },
		"probability": func(p *Params) { p.PUnmodified = 1.5 },
	} {
		p := Defaults(8)
		spoil(&p)
		if _, err := Solve(p); err == nil {
			t.Errorf("bad %s accepted", name)
		}
	}
}

func TestLightLoadApproachesIdeal(t *testing.T) {
	p := Defaults(32)
	p.RequestRate = 0.01
	r := MustSolve(p)
	if r.Efficiency < 0.999 {
		t.Errorf("efficiency at negligible load = %f", r.Efficiency)
	}
}

func TestDesignPointNinetyPercent(t *testing.T) {
	// The paper: ~1K processors at roughly ninety percent utilization
	// needs an average access rate below 25 requests/ms.
	p := Defaults(32)
	p.RequestRate = 25
	r := MustSolve(p)
	if r.Efficiency < 0.80 || r.Efficiency > 0.95 {
		t.Errorf("efficiency at design point = %f, want ~0.9", r.Efficiency)
	}
	// And below the design rate it must exceed 90%.
	p.RequestRate = 15
	if got := MustSolve(p).Efficiency; got < 0.90 {
		t.Errorf("efficiency at 15 req/ms = %f, want > 0.90", got)
	}
}

func TestFigure2Ordering(t *testing.T) {
	// At any load, wider rows (more processors) mean lower efficiency:
	// curves ordered 8 > 16 > 24 > 32 top to bottom.
	for _, rate := range []float64{5, 25, 50, 100} {
		prev := 1.1
		for _, n := range []int{8, 16, 24, 32} {
			p := Defaults(n)
			p.RequestRate = rate
			eff := MustSolve(p).Efficiency
			if eff >= prev {
				t.Errorf("rate %g: eff(n=%d)=%f not below previous %f", rate, n, eff, prev)
			}
			prev = eff
		}
	}
}

func TestFigure3InvalidationOrdering(t *testing.T) {
	// More invalidating writes, lower efficiency; the effect is small at
	// the ninety-percent operating point (the paper's observation).
	for _, rate := range []float64{10, 25, 60} {
		prev := 1.1
		for _, pinv := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
			p := Defaults(32)
			p.RequestRate = rate
			p.PInvalidate = pinv
			eff := MustSolve(p).Efficiency
			if eff >= prev {
				t.Errorf("rate %g: eff(pinv=%g)=%f not below %f", rate, pinv, eff, prev)
			}
			prev = eff
		}
	}
	// Small effect near the design point: 10% vs 50% within a few points.
	lo, hi := Defaults(32), Defaults(32)
	lo.RequestRate, hi.RequestRate = 15, 15
	lo.PInvalidate, hi.PInvalidate = 0.1, 0.5
	d := MustSolve(lo).Efficiency - MustSolve(hi).Efficiency
	if d < 0 || d > 0.10 {
		t.Errorf("invalidation effect at design point = %f, want small positive", d)
	}
}

func TestFigure4BlockSizeOrdering(t *testing.T) {
	// At a fixed request rate, larger blocks cost efficiency (longer
	// transfers): 4 > 8 > 16 > 32 > 64 top to bottom.
	for _, rate := range []float64{10, 25, 50} {
		prev := 1.1
		for _, bw := range []int{4, 8, 16, 32, 64} {
			p := Defaults(32)
			p.RequestRate = rate
			p.BlockWords = bw
			eff := MustSolve(p).Efficiency
			if eff >= prev {
				t.Errorf("rate %g: eff(block=%d)=%f not below %f", rate, bw, eff, prev)
			}
			prev = eff
		}
	}
}

func TestBlockTradeoffFavorsMidSizes(t *testing.T) {
	// Under the optimistic coupling (rate halves per doubling), a
	// moderate block beats the 4-word block — the Leutenegger-Vernon
	// argument for 16-32 words.
	f := Figure4BlockTradeoff(50)
	s := f.Series("rate halves per doubling")
	if s.Points[16] <= s.Points[4] {
		t.Errorf("16-word block (%f) should beat 4-word (%f) under halving coupling",
			s.Points[16], s.Points[4])
	}
}

func TestLatencyTechniquesImprove(t *testing.T) {
	base := Defaults(32)
	base.BlockWords = 32
	base.RequestRate = 25
	eff := MustSolve(base).Efficiency
	for _, mod := range []func(*Params){
		func(p *Params) { p.CutThrough = true },
		func(p *Params) { p.WordFirst = true },
		func(p *Params) { p.TransferWords = 8 },
	} {
		p := base
		mod(&p)
		if got := MustSolve(p).Efficiency; got <= eff {
			t.Errorf("technique did not improve efficiency: %f <= %f", got, eff)
		}
	}
	// Both overlaps together beat either alone.
	both := base
	both.CutThrough, both.WordFirst = true, true
	single := base
	single.CutThrough = true
	if MustSolve(both).Efficiency <= MustSolve(single).Efficiency {
		t.Error("combined techniques not better than one")
	}
}

func TestUtilizationsBounded(t *testing.T) {
	f := func(rawRate, rawN uint8) bool {
		n := 2 + int(rawN)%31
		p := Defaults(n)
		p.RequestRate = 1 + float64(int(rawRate)%100)
		r := MustSolve(p)
		return r.RowUtil > 0 && r.RowUtil <= 1.0001 &&
			r.ColUtil > 0 && r.ColUtil <= 1.0001 &&
			r.MemUtil > 0 && r.MemUtil <= 1.0001 &&
			r.Efficiency > 0 && r.Efficiency <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEfficiencyMonotoneInRate(t *testing.T) {
	prev := 1.1
	for _, rate := range RateSweep() {
		p := Defaults(32)
		p.RequestRate = rate
		eff := MustSolve(p).Efficiency
		if eff >= prev {
			t.Errorf("eff(%g)=%f not below %f", rate, eff, prev)
		}
		prev = eff
	}
}

func TestThroughputConsistency(t *testing.T) {
	// Little's law: X = M / (Z + R).
	p := Defaults(16)
	p.RequestRate = 25
	r := MustSolve(p)
	m := 256.0
	z := 1e6 / 25
	want := m / (z + r.Response) * 1e9
	if math.Abs(r.Throughput-want) > 1e-6*want {
		t.Errorf("throughput = %f, want %f", r.Throughput, want)
	}
}

func TestFiguresRender(t *testing.T) {
	rates := []float64{5, 25, 50}
	for _, f := range []interface{ Render() string }{
		Figure2(rates), Figure3(rates), Figure4(rates),
		Figure4BlockTradeoff(50), LatencyTechniques(rates),
	} {
		if out := f.Render(); len(out) < 50 {
			t.Errorf("suspiciously short figure:\n%s", out)
		}
	}
	// Default sweep path.
	if Figure2(nil).Table().Rows() != len(RateSweep()) {
		t.Error("default sweep rows mismatch")
	}
}

// plots is every table of the model the benchmark harness prints, at its
// default axes.
func plots() []plot {
	return []plot{
		figure2Plot(nil), figure3Plot(nil), figure4Plot(nil),
		blockTradeoffPlot(50), latencyPlot(nil), dimensionPlot(nil),
	}
}

func TestFixedPointResidual(t *testing.T) {
	// Every published point is the fixed point X = m/(z + r(X)), not an
	// iterate a loop stopped on.
	for _, pl := range plots() {
		for _, c := range pl.curves {
			for _, x := range pl.xs {
				nw := c.at(x).network()
				X := nw.throughput()
				if g := nw.residual(X); math.Abs(g) > 1e-9*X {
					t.Errorf("%s, %s at %g: residual %g at X = %g", pl.title, c.label, x, g, X)
				}
			}
		}
	}
}

func TestThroughputNondecreasingInRate(t *testing.T) {
	// At the fixed point more offered load never completes less work:
	// efficiency × rate (transactions per processor per ms) never falls
	// along a curve over the request rate.
	for _, pl := range plots() {
		if pl.xLabel != "req/ms" {
			continue
		}
		for _, c := range pl.curves {
			prev := 0.0
			for _, rate := range pl.xs {
				x := MustSolve(c.at(rate)).Efficiency * rate
				if x < prev {
					t.Errorf("%s, %s: throughput %g at %g req/ms, below %g", pl.title, c.label, x, rate, prev)
				}
				prev = x
			}
		}
	}
}
