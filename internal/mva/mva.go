// Package mva implements an approximate mean-value analysis of the
// Wisconsin Multicube, in the spirit of the Leutenegger–Vernon model
// [LeVe88] whose results the paper reproduces as Figures 2–4, over the
// k-dimensional Multicube of Section 6.
//
// The machine is a closed queueing network: N = n^k processors cycle
// between thinking (the mean time between bus requests, the reciprocal of
// the per-processor bus request rate) and executing one coherence
// transaction. A transaction visits queueing centers — the n^(k−1) buses
// of each of the k dimensions and the n^(k−1) memory modules — plus pure
// delays (the 750 ns snooping-cache access of a remote supplier).
// Dimension 1 is the requester's row and dimension k the line's home
// column. Visit ratios and service times per class are derived from the
// protocol's own choreography (Section 3 / Appendix A):
//
//   - a request to a line in global state modified: an address hop on
//     each dimension out to the home (the REMOVE), remote cache access,
//     then a data hop back on each dimension, plus the memory-update
//     operation for READs;
//   - a READ to an unmodified line: the same address hops to memory,
//     memory access, and the data hops back;
//   - an invalidating write miss to an unmodified line: the same memory
//     path plus the broadcast — a short purge on every other bus of each
//     dimension it fans out over and the modified-line-table INSERT on
//     the home dimension ((N−1)/(n−1) operations with the data hops,
//     Section 6).
//
// At k = 2 these are exactly the row and column operations of Figure 2's
// machine: the broadcast is n+1 row and 3 column operations.
//
// Requests are non-overlapping per processor, matching the paper's
// assumption. The solver is the Schweitzer/Bard fixed point with the
// arrival-theorem correction (M-1)/M; since a transaction's response time
// never falls as throughput rises, the fixed point is the unique root of a
// decreasing function, which the solver brackets.
package mva

import (
	"fmt"
	"math"

	"multicube/internal/bus"
)

// Figure 2's timing, which the timed machines read from internal/bus too,
// in nanoseconds; and the fraction of modified-line requests that are
// READ-MODs (ownership transfers, no memory update), the remainder being
// READs, which add the memory-update operation.
const (
	wordTime         = float64(bus.WordTime)
	addrWords        = bus.AddrWords
	cacheLatency     = float64(bus.CacheLatency)
	memoryLatency    = float64(bus.MemoryLatency)
	pWriteToModified = 0.5
)

// Params is one evaluation point of the model. RequestRate is bus
// requests per millisecond per processor (the paper's x axis).
type Params struct {
	// N is the number of processors per bus (n); the machine has n^K.
	N int
	// K is the number of dimensions: 2 is the Wisconsin Multicube.
	K int
	// BlockWords is the coherency block size in bus words.
	BlockWords int
	// TransferWords, when nonzero and smaller than BlockWords, is the
	// transfer block size of Section 5 (small transfer blocks within
	// large coherency blocks).
	TransferWords int
	// RequestRate is per-processor bus requests per millisecond.
	RequestRate float64
	// PUnmodified is the probability the requested line is in global
	// state unmodified (0.8 in Figure 2).
	PUnmodified float64
	// PInvalidate is the probability that a request to unmodified data
	// is a write miss requiring the invalidation broadcast (0.2 in
	// Figure 2; swept in Figure 3).
	PInvalidate float64

	// CutThrough, when set, forwards data onto the next bus as soon as
	// the first words arrive (Section 5), hiding most of the transfer
	// latency of every data hop but the last. Bus occupancy is unchanged.
	CutThrough bool
	// WordFirst, when set, transmits the requested word first, hiding
	// most of the final-leg transfer latency at the processor.
	WordFirst bool
}

// Defaults returns the Figure 2 parameter set for n processors per row.
func Defaults(n int) Params {
	return Params{
		N:           n,
		K:           2,
		BlockWords:  16,
		RequestRate: 25,
		PUnmodified: 0.8,
		PInvalidate: 0.2,
	}
}

func (p Params) validate() error {
	if p.N < 2 || p.K < 1 {
		return fmt.Errorf("mva: n = %d, k = %d", p.N, p.K)
	}
	if math.Pow(float64(p.N), float64(p.K)) > 1e9 {
		return fmt.Errorf("mva: machine too large")
	}
	if p.BlockWords < 1 || p.RequestRate <= 0 {
		return fmt.Errorf("mva: nonpositive block or rate")
	}
	if p.PUnmodified < 0 || p.PUnmodified > 1 || p.PInvalidate < 0 || p.PInvalidate > 1 {
		return fmt.Errorf("mva: probabilities out of range")
	}
	return nil
}

// Result reports the model's outputs at one parameter point.
type Result struct {
	// Efficiency is the effective speedup relative to a machine with no
	// bus or memory latency: the fraction of time a processor computes.
	Efficiency float64
	// Response is the mean bus-transaction response time in ns.
	Response float64
	// RowUtil, ColUtil and MemUtil are per-center utilizations: of a bus
	// of dimension 1 (a row), of the home dimension k (a column at
	// k = 2), and of a memory module.
	RowUtil, ColUtil, MemUtil float64
	// Throughput is completed transactions per second, machine-wide.
	Throughput float64
}

// hop is one operation at a center: bus dimension d is center d−1, and
// memory is center K.
type hop struct {
	c int
	s float64 // service time of this operation
}

// offPath is count operations of one size at a center, off the critical
// path.
type offPath struct {
	hop
	count float64
}

// class is one transaction class with its probability, critical path and
// off-path operations.
type class struct {
	p     float64
	hops  []hop   // queueing visits on the critical path
	delay float64 // pure delays on the critical path (remote cache)
	off   []offPath
}

// build derives the transaction classes from the protocol.
func (p Params) build() []class {
	tAddr := float64(addrWords) * wordTime
	bw := p.BlockWords
	if p.TransferWords > 0 && p.TransferWords < bw {
		bw = p.TransferWords
	}
	tData := float64(addrWords+bw) * wordTime

	// Critical-path cost of the data hops (Section 5): every hop but the
	// last can be overlapped by cut-through forwarding, the last by
	// requested-word-first transmission. Bus occupancy stays tData.
	leg1 := tData
	if p.CutThrough {
		leg1 = float64(addrWords+1) * wordTime
	}
	leg2 := tData
	if p.WordFirst {
		leg2 = float64(addrWords+1) * wordTime
	}

	k, home, mem := p.K, p.K-1, p.K
	// trip is a critical path: an address hop on each dimension 1..k,
	// the memory access when memory supplies the line, and k data hops
	// back — home dimension first when the data retraces the request to
	// the requester (k..1), dimension 1 first when it travels from the
	// owner's row on to the requester (1..k).
	trip := func(memory, retrace bool) []hop {
		hops := make([]hop, 0, 2*k+1)
		for c := 0; c < k; c++ {
			hops = append(hops, hop{c, tAddr})
		}
		if memory {
			hops = append(hops, hop{mem, memoryLatency})
		}
		for i := 0; i < k; i++ {
			c, s := i, sEff(tData, leg1)
			if retrace {
				c = k - 1 - i
			}
			if i == k-1 {
				s = sEff(tData, leg2)
			}
			hops = append(hops, hop{c, s})
		}
		return hops
	}

	pm := 1 - p.PUnmodified
	puR := p.PUnmodified * (1 - p.PInvalidate)
	puW := p.PUnmodified * p.PInvalidate

	// The broadcast of an invalidating write fans out from the home
	// dimension k toward dimension 1. It reaches n^(k−d) buses of
	// dimension d: one carries the data hop, each other a short purge (the
	// n−1 other rows at k = 2). The home dimension also carries the INSERT.
	var bcast []offPath
	reached := 1.0
	for c := home; c >= 0; c-- {
		if reached > 1 {
			bcast = append(bcast, offPath{hop{c, tAddr}, reached - 1})
		}
		reached *= float64(p.N)
	}
	bcast = append(bcast, offPath{hop{home, tAddr}, 1})

	return []class{
		// READ to a modified line — 5 bus operations at k = 2: row
		// request, column request, remote cache access, column data
		// (critical leg 1), row data (leg 2); the memory update is an
		// off-path data operation on the home dimension plus the
		// memory write.
		{
			p: pm * (1 - pWriteToModified), hops: trip(false, true), delay: cacheLatency,
			off: []offPath{{hop{home, tData}, 1}, {hop{mem, memoryLatency}, 1}},
		},
		// READ-MOD to a modified line — 4 bus operations at k = 2: row
		// request, column request, remote cache access, data toward the
		// requester (row then column legs), plus the off-path INSERT.
		{
			p: pm * pWriteToModified, hops: trip(false, false), delay: cacheLatency,
			off: []offPath{{hop{home, tAddr}, 1}},
		},
		// READ to an unmodified line — row request, column request to
		// memory, memory access, column data, row data.
		{p: puR, hops: trip(true, true)},
		// Invalidating write miss to an unmodified line — the memory
		// path plus the broadcast.
		{p: puW, hops: trip(true, true), off: bcast},
	}
}

// sEff bounds the effective critical-path service by the occupancy: an
// overlap optimization never makes a hop slower than the raw transfer.
func sEff(occupancy, effective float64) float64 {
	return math.Min(occupancy, effective)
}

// network is the closed network at one point: m customers thinking z ns
// between transactions, and per transaction the mean critical-path delay
// and, at one center of each kind, the demand (busy ns) and the second
// moment of its service (Σ p·s²).
type network struct {
	m, z, delay    float64
	classes        []class
	demand, workSq []float64
	wait           []float64 // scratch for residual
}

func (p Params) network() *network {
	n := float64(p.N)
	pool := math.Pow(n, float64(p.K-1)) // buses per dimension, memory modules
	nw := &network{
		m:       pool * n,
		z:       1e6 / p.RequestRate, // rate is per ms
		classes: p.build(),
		demand:  make([]float64, p.K+1),
		workSq:  make([]float64, p.K+1),
		wait:    make([]float64, p.K+1),
	}
	// By symmetry each center of a kind takes 1/pool of the kind's work.
	for _, cl := range nw.classes {
		for _, h := range cl.hops {
			nw.demand[h.c] += cl.p * h.s / pool
			nw.workSq[h.c] += cl.p * h.s * h.s / pool
		}
		for _, o := range cl.off {
			nw.demand[o.c] += cl.p * (o.count * o.s) / pool
			nw.workSq[o.c] += cl.p * o.count * o.s * o.s / pool
		}
		nw.delay += cl.p * cl.delay
	}
	return nw
}

// residual is g(X) = m/(z + r(X)) − X, where r(X) is the response time
// at throughput X (per ns). The wait at a FIFO center is the expected
// unfinished work an arrival finds. With arrival rate a·X (arrival-theorem
// correction (M-1)/M for a closed network), the work balance
// W = a·X·(W·D + SQ/2) gives the M/G/1-like closed form
// W = a·X·SQ/2 / (1 − a·X·D). Every wait, so r, is nondecreasing in X, and
// g is strictly decreasing.
func (nw *network) residual(x float64) float64 {
	a := x * (nw.m - 1) / nw.m
	for c := range nw.wait {
		den := 1 - a*nw.demand[c]
		if den < 1e-6 {
			den = 1e-6
		}
		nw.wait[c] = a * nw.workSq[c] / 2 / den
	}
	r := nw.delay
	for _, cl := range nw.classes {
		for _, h := range cl.hops {
			r += cl.p * (nw.wait[h.c] + h.s)
		}
	}
	return nw.m/(nw.z+r) - x
}

// throughput is the fixed point X = m/(z + r(X)): the root of the
// residual on [0, hi], where hi is the lesser of the bottleneck's
// capacity 1/max(D) and the throughput with no bus or memory time. g(0)
// is positive; if g is still nonnegative at hi, the bottleneck caps X.
// The root is found by the Illinois variant of regula falsi, which keeps
// it bracketed and halves a stale end's residual so both ends close in;
// it stops when the bracket holds no float between its ends and returns
// lo. The ends are then one ulp apart, so which one is returned does not
// matter.
func (nw *network) throughput() float64 {
	hi := nw.m / (nw.z + nw.delay)
	for _, d := range nw.demand {
		if d > 0 && 1/d < hi {
			hi = 1 / d
		}
	}
	ghi := nw.residual(hi)
	if ghi >= 0 {
		return hi
	}
	lo, glo := 0.0, nw.residual(0)
	side := 0
	for {
		x := lo + glo*(hi-lo)/(glo-ghi)
		if !(lo < x && x < hi) {
			x = lo + (hi-lo)/2
			if !(lo < x && x < hi) {
				return lo
			}
		}
		switch g := nw.residual(x); {
		case g > 0:
			lo, glo = x, g
			if side > 0 {
				ghi /= 2
			}
			side = 1
		case g < 0:
			hi, ghi = x, g
			if side < 0 {
				glo /= 2
			}
			side = -1
		default:
			return x
		}
	}
}

// Solve evaluates the model.
func Solve(p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	nw := p.network()
	x := nw.throughput()
	r := nw.m/x - nw.z
	return Result{
		Efficiency: nw.z / (nw.z + r),
		Response:   r,
		RowUtil:    x * nw.demand[0],
		ColUtil:    x * nw.demand[p.K-1],
		MemUtil:    x * nw.demand[p.K],
		Throughput: x * 1e9, // x is per ns
	}, nil
}

// MustSolve is Solve but panics on error.
func MustSolve(p Params) Result {
	r, err := Solve(p)
	if err != nil {
		panic(err)
	}
	return r
}
