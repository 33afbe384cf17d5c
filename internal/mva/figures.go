package mva

import (
	"fmt"
	"math"

	"multicube/internal/stats"
)

// This file defines the exact parameter sets of the paper's evaluation
// figures and renders each as a stats.Figure (one column per curve, one
// row per x value), the form the benchmark harness prints.

// RateSweep is the default x axis: bus requests per millisecond per
// processor. The paper's design point is 25 requests/ms ("an average
// access rate of less than twenty-five requests per millisecond per
// processor" for ~90% utilization of 1K processors).
func RateSweep() []float64 {
	return []float64{1, 2, 5, 10, 15, 20, 25, 30, 35, 40, 50, 60, 80, 100}
}

// plot is one table of the model before it is solved: its title, x axis
// and curves.
type plot struct {
	title, xLabel string
	xs            []float64
	curves        []curve
}

// curve is one labelled line of a plot: the model point at each x.
type curve struct {
	label string
	at    func(x float64) Params
}

// figure solves every point of the plot.
func (pl plot) figure() *stats.Figure {
	f := stats.NewFigure(pl.title, pl.xLabel)
	for _, c := range pl.curves {
		for _, x := range pl.xs {
			f.Add(c.label, x, MustSolve(c.at(x)).Efficiency)
		}
	}
	return f
}

// ratePlot is a plot over the request rate (RateSweep when rates is nil).
func ratePlot(title string, rates []float64) plot {
	if rates == nil {
		rates = RateSweep()
	}
	return plot{title: title, xLabel: "req/ms", xs: rates}
}

// rateCurve is the curve through base at each request rate.
func rateCurve(label string, base Params) curve {
	return curve{label, func(rate float64) Params {
		p := base
		p.RequestRate = rate
		return p
	}}
}

// Figure2 reproduces "Efficiency versus Number of Processors per Row":
// one curve per row width (8, 16, 24, 32 — total processors the square),
// block 16 words, P(unmodified)=0.8, P(invalidate)=0.2.
func Figure2(rates []float64) *stats.Figure { return figure2Plot(rates).figure() }

func figure2Plot(rates []float64) plot {
	pl := ratePlot("Figure 2: Efficiency versus number of processors per row (top to bottom: 8, 16, 24, 32)", rates)
	for _, n := range []int{8, 16, 24, 32} {
		pl.curves = append(pl.curves, rateCurve(fmt.Sprintf("n=%d (N=%d)", n, n*n), Defaults(n)))
	}
	return pl
}

// Figure3 reproduces "The Effect of Invalidations on Performance with 1K
// Processors": n=32, write-miss-to-shared percentage 10..50.
func Figure3(rates []float64) *stats.Figure { return figure3Plot(rates).figure() }

func figure3Plot(rates []float64) plot {
	pl := ratePlot("Figure 3: Effect of invalidations, 1K processors (top to bottom: 10%..50% write misses to shared data)", rates)
	for _, pct := range []int{10, 20, 30, 40, 50} {
		p := Defaults(32)
		p.PInvalidate = float64(pct) / 100
		pl.curves = append(pl.curves, rateCurve(fmt.Sprintf("inval=%d%%", pct), p))
	}
	return pl
}

// Figure4 reproduces "Effect of Block Size on Performance with 1K
// Processors": n=32, block sizes 4..64 bus words at a fixed request rate
// per curve point.
func Figure4(rates []float64) *stats.Figure { return figure4Plot(rates).figure() }

func figure4Plot(rates []float64) plot {
	pl := ratePlot("Figure 4: Effect of block size, 1K processors (top to bottom: 4, 8, 16, 32, 64 bus words)", rates)
	for _, bw := range []int{4, 8, 16, 32, 64} {
		p := Defaults(32)
		p.BlockWords = bw
		pl.curves = append(pl.curves, rateCurve(fmt.Sprintf("block=%d", bw), p))
	}
	return pl
}

// Figure4BlockTradeoff renders the dashed-line analysis of Figure 4: how
// efficiency at the design-point load changes with block size under the
// two extreme couplings the paper draws — doubling the block size leaves
// the request rate unchanged (pessimistic), or halves it (optimistic,
// perfect spatial locality).
func Figure4BlockTradeoff(baseRate float64) *stats.Figure {
	return blockTradeoffPlot(baseRate).figure()
}

func blockTradeoffPlot(baseRate float64) plot {
	coupled := func(halves bool) func(float64) Params {
		return func(bw float64) Params {
			p := Defaults(32)
			p.BlockWords = int(bw)
			p.RequestRate = baseRate
			if halves {
				p.RequestRate = baseRate * 16 / bw // anchored at 16
			}
			return p
		}
	}
	return plot{
		title:  "Figure 4 (dashed lines): block size versus request-rate coupling at the design point",
		xLabel: "block",
		xs:     []float64{4, 8, 16, 32, 64},
		curves: []curve{{"rate constant", coupled(false)}, {"rate halves per doubling", coupled(true)}},
	}
}

// LatencyTechniques renders the Section 5 ablation: transfer-block size
// reduction, cut-through forwarding, and requested-word-first, separately
// and combined, at n=32 with 32-word coherency blocks.
func LatencyTechniques(rates []float64) *stats.Figure { return latencyPlot(rates).figure() }

func latencyPlot(rates []float64) plot {
	pl := ratePlot("Latency-reduction techniques (Section 5), n=32, 32-word coherency blocks", rates)
	for _, v := range []struct {
		label string
		mod   func(*Params)
	}{
		{"baseline", func(*Params) {}},
		{"cut-through", func(p *Params) { p.CutThrough = true }},
		{"word-first", func(p *Params) { p.WordFirst = true }},
		{"both", func(p *Params) { p.CutThrough = true; p.WordFirst = true }},
		{"transfer=8", func(p *Params) { p.TransferWords = 8 }},
	} {
		p := Defaults(32)
		p.BlockWords = 32
		v.mod(&p)
		pl.curves = append(pl.curves, rateCurve(v.label, p))
	}
	return pl
}

// DimensionSweep compares machines of roughly equal processor counts
// built with different dimensionality — the Section 6 question of
// whether higher-k Multicubes remain efficient, which the paper leaves
// for future research. Each curve is one (n, k) configuration at Figure
// 2's point, swept over the request rate; its k = 2 curve is Figure 2's
// n = 32.
func DimensionSweep(rates []float64) *stats.Figure { return dimensionPlot(rates).figure() }

func dimensionPlot(rates []float64) plot {
	pl := ratePlot("Dimensionality sweep (Section 6): ~1K processors built as n^k", rates)
	for _, cfg := range []struct{ n, k int }{
		{32, 2}, // the Wisconsin Multicube: 1024
		{10, 3}, // 1000 processors in three dimensions
		{6, 4},  // 1296 in four
		{2, 10}, // a 1024-node hypercube with bus semantics
	} {
		p := Defaults(cfg.n)
		p.K = cfg.k
		label := fmt.Sprintf("n=%d k=%d (N=%.0f)", cfg.n, cfg.k, math.Pow(float64(cfg.n), float64(cfg.k)))
		pl.curves = append(pl.curves, rateCurve(label, p))
	}
	return pl
}
