package mva

import (
	"fmt"
	"math"

	"multicube/internal/stats"
)

// This file extends the analytical model to the general k-dimensional
// Multicube of Section 6 — the paper's closing research question
// ("these factors may be balanced in a multidimensional Multicube
// architecture to achieve scalable performance. This topic is a subject
// for future research.").
//
// Generalizations, all taken from Section 6's own accounting:
//
//   - N = n^k processors; k·n^(k−1) buses, so the per-dimension bus pool
//     a transaction's operations spread over is n^(k−1);
//   - a request travels up to k hops to reach the line's home bus and the
//     data travels up to k hops back (dimension-ordered routing), versus
//     2+2 in the two-dimensional machine;
//   - the invalidating broadcast costs approximately (N−1)/(n−1) bus
//     operations instead of n+1 row + 3 column;
//   - the modified-line-table structures generalize (each table covers
//     N/n processors), which this model abstracts as the same REMOVE/
//     INSERT address operations along the request path.
type MultiParams struct {
	// N is processors per bus; K is the number of dimensions.
	N, K int
	// RequestRate is per-processor bus requests per millisecond. The
	// rest of the point (block size, line-state mix) is Defaults(N)'s.
	RequestRate float64
}

// MultiDefaults returns the Figure 2 point for an n^k machine.
func MultiDefaults(n, k int) MultiParams {
	return MultiParams{N: n, K: k, RequestRate: Defaults(n).RequestRate}
}

func (p MultiParams) validate() error {
	if p.N < 2 || p.K < 1 {
		return fmt.Errorf("mva: multicube n=%d k=%d", p.N, p.K)
	}
	if p.RequestRate <= 0 {
		return fmt.Errorf("mva: nonpositive rate")
	}
	if float64(p.N)*math.Pow(float64(p.N), float64(p.K-1)) > 1e9 {
		return fmt.Errorf("mva: machine too large")
	}
	return nil
}

// SolveMulti evaluates the k-dimensional model. All buses are equivalent
// by symmetry (the paper notes real buses in different dimensions would
// differ in speed; we model the idealized symmetric machine, as the
// paper's own formulas do).
func SolveMulti(p MultiParams) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	n := float64(p.N)
	k := float64(p.K)
	m := math.Pow(n, k)           // processors
	buses := k * math.Pow(n, k-1) // total buses
	z := 1e6 / p.RequestRate      // think time ns

	d := Defaults(p.N)
	tAddr := float64(addrWords) * wordTime
	tData := float64(addrWords+d.BlockWords) * wordTime

	// A transaction's critical path: k address hops out, k data hops
	// back (one of each on a multi, k=1). Requests to modified lines pay
	// the remote cache latency; others pay memory.
	hopsOut := k
	hopsBack := k

	pm := 1 - d.PUnmodified
	puW := d.PUnmodified * d.PInvalidate

	// Broadcast cost (bus-seconds of short operations, spread over all
	// buses): ~(N-1)/(n-1) operations per invalidating write.
	bcastOps := (m - 1) / (n - 1)

	// Per-bus demand per transaction: all operations divided over the
	// total bus pool (symmetry).
	critOps := hopsOut*tAddr + hopsBack*tData
	extraOps := pm*tData /* memory update for reads of modified */ +
		puW*(bcastOps*tAddr+tAddr /* table insert */)
	demand := (critOps + extraOps) / buses
	workSq := (hopsOut*tAddr*tAddr + hopsBack*tData*tData +
		pm*tData*tData + puW*(bcastOps*tAddr*tAddr+tAddr*tAddr)) / buses

	// Memory/remote-cache access: one queueing-free delay per
	// transaction (the n^(k-1) memory modules see little contention at
	// these rates; the 2-D solver models them explicitly, and the
	// simplification costs a few percent at saturation only).
	delay := pm*cacheLatency + (1-pm)*memoryLatency

	x := m / (z + delay + critOps)
	if cap := 1 / demand; x > cap {
		x = cap
	}
	for iter := 0; iter < 20000; iter++ {
		a := x * (m - 1) / m
		den := 1 - a*demand
		if den < 1e-6 {
			den = 1e-6
		}
		wait := a * workSq / 2 / den
		// Each of the 2k critical hops waits once.
		r := delay + critOps + (hopsOut+hopsBack)*wait
		xNew := m / (z + r)
		if cap := 1 / demand; xNew > cap {
			xNew = cap
		}
		xNew = 0.5*x + 0.5*xNew
		if math.Abs(xNew-x) <= 1e-12*math.Max(1e-12, x) {
			x = xNew
			break
		}
		x = xNew
	}
	r := m/x - z
	return Result{
		Efficiency: z / (z + r),
		Response:   r,
		RowUtil:    x * demand,
		ColUtil:    x * demand,
		MemUtil:    0,
		Throughput: x * 1e9,
	}, nil
}

// MustSolveMulti is SolveMulti but panics on error.
func MustSolveMulti(p MultiParams) Result {
	r, err := SolveMulti(p)
	if err != nil {
		panic(err)
	}
	return r
}

// DimensionSweep compares machines of roughly equal processor counts
// built with different dimensionality — the Section 6 question of
// whether higher-k Multicubes remain efficient. Each curve is one (n, k)
// configuration swept over the request rate.
func DimensionSweep(rates []float64) *stats.Figure {
	if rates == nil {
		rates = RateSweep()
	}
	f := stats.NewFigure(
		"Dimensionality sweep (Section 6): ~1K processors built as n^k",
		"req/ms")
	for _, cfg := range []struct{ n, k int }{
		{32, 2}, // the Wisconsin Multicube: 1024
		{10, 3}, // 1000 processors in three dimensions
		{6, 4},  // 1296 in four
		{2, 10}, // a 1024-node hypercube with bus semantics
	} {
		label := fmt.Sprintf("n=%d k=%d (N=%.0f)", cfg.n, cfg.k, math.Pow(float64(cfg.n), float64(cfg.k)))
		for _, rate := range rates {
			p := MultiDefaults(cfg.n, cfg.k)
			p.RequestRate = rate
			f.Add(label, rate, MustSolveMulti(p).Efficiency)
		}
	}
	return f
}
