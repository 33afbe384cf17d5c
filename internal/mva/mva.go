// Package mva implements an approximate mean-value analysis of the
// Wisconsin Multicube, in the spirit of the Leutenegger–Vernon model
// [LeVe88] whose results the paper reproduces as Figures 2–4.
//
// The machine is a closed queueing network: M = n² processors cycle
// between thinking (the mean time between bus requests, the reciprocal of
// the per-processor bus request rate) and executing one coherence
// transaction. A transaction visits queueing centers — the n row buses,
// the n column buses, and the n memory modules — plus pure delays (the
// 750 ns snooping-cache access of a remote supplier). Visit ratios and
// service times per class are derived from the protocol's own
// choreography (Section 3 / Appendix A):
//
//   - a request to a line in global state modified: row request, column
//     request with REMOVE, remote cache access, then two data hops back
//     (column, row), plus the memory-update operation for READs;
//   - a READ to an unmodified line: row request, column request to
//     memory, memory access, column data reply, row data reply;
//   - an invalidating write miss to an unmodified line: the same memory
//     path plus the broadcast — one short purge operation on every row
//     bus and the modified-line-table INSERT on the requester's column
//     (n+1 row and 3 column operations, Section 6).
//
// Requests are non-overlapping per processor, matching the paper's
// assumption. The solver is the Schweitzer/Bard fixed point with the
// arrival-theorem correction (M-1)/M.
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
	// N is the number of processors per bus (n); the machine has n².
	N int
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

	// CutThrough, when set, forwards data onto the second bus as soon as
	// the first words arrive (Section 5), hiding most of the first-leg
	// transfer latency. Bus occupancy is unchanged.
	CutThrough bool
	// WordFirst, when set, transmits the requested word first, hiding
	// most of the final-leg transfer latency at the processor.
	WordFirst bool
}

// Defaults returns the Figure 2 parameter set for n processors per row.
func Defaults(n int) Params {
	return Params{
		N:           n,
		BlockWords:  16,
		RequestRate: 25,
		PUnmodified: 0.8,
		PInvalidate: 0.2,
	}
}

func (p Params) validate() error {
	if p.N < 2 {
		return fmt.Errorf("mva: n = %d", p.N)
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
	// RowUtil, ColUtil, MemUtil are per-center utilizations.
	RowUtil, ColUtil, MemUtil float64
	// Throughput is completed transactions per second, machine-wide.
	Throughput float64
}

// center indexes the queueing center types.
type center int

const (
	rowBus center = iota
	colBus
	memMod
	nCenters
)

// hop is one critical-path visit to a center.
type hop struct {
	c center
	s float64 // service time of this operation
}

// class is one transaction class with its probability, critical path and
// total (on- plus off-path) center demands.
type class struct {
	p     float64
	hops  []hop   // queueing visits on the critical path
	delay float64 // pure delays on the critical path (remote cache)
	extra [nCenters]struct {
		time   float64 // off-critical-path bus-seconds on the center type
		visits float64 // off-critical-path operations
	}
}

// build derives the transaction classes from the protocol.
func (p Params) build() []class {
	tAddr := float64(addrWords) * wordTime
	bw := p.BlockWords
	if p.TransferWords > 0 && p.TransferWords < bw {
		bw = p.TransferWords
	}
	tData := float64(addrWords+bw) * wordTime

	// Critical-path cost of the two data legs (Section 5): the first leg
	// can be overlapped by cut-through forwarding, the second by
	// requested-word-first transmission. Bus occupancy stays tData.
	leg1 := tData
	if p.CutThrough {
		leg1 = float64(addrWords+1) * wordTime
	}
	leg2 := tData
	if p.WordFirst {
		leg2 = float64(addrWords+1) * wordTime
	}

	pm := 1 - p.PUnmodified
	puR := p.PUnmodified * (1 - p.PInvalidate)
	puW := p.PUnmodified * p.PInvalidate

	var classes []class

	// Class 1a: READ to a modified line — 5 bus operations: row request,
	// column request, remote cache access, column data (critical leg 1),
	// row data (leg 2); the memory update is a sixth, off-path data
	// operation on the home column plus the memory write.
	readMod := class{
		p: pm * (1 - pWriteToModified),
		hops: []hop{
			{rowBus, tAddr}, {colBus, tAddr},
			{colBus, sEff(tData, leg1)}, {rowBus, sEff(tData, leg2)},
		},
		delay: cacheLatency,
	}
	readMod.extra[colBus].time += tData // memory update op
	readMod.extra[colBus].visits++
	readMod.extra[memMod].time += memoryLatency
	readMod.extra[memMod].visits++
	classes = append(classes, readMod)

	// Class 1b: READ-MOD to a modified line — 4 bus operations: row
	// request, column request, remote cache access, data toward the
	// requester (row then column legs), plus the off-path INSERT.
	writeMod := class{
		p: pm * pWriteToModified,
		hops: []hop{
			{rowBus, tAddr}, {colBus, tAddr},
			{rowBus, sEff(tData, leg1)}, {colBus, sEff(tData, leg2)},
		},
		delay: cacheLatency,
	}
	writeMod.extra[colBus].time += tAddr // modified line table INSERT
	writeMod.extra[colBus].visits++
	classes = append(classes, writeMod)

	// Class 2: READ to an unmodified line — row request, column request
	// to memory, memory access, column data, row data (4 bus ops).
	readUnmod := class{
		p: puR,
		hops: []hop{
			{rowBus, tAddr}, {colBus, tAddr}, {memMod, memoryLatency},
			{colBus, sEff(tData, leg1)}, {rowBus, sEff(tData, leg2)},
		},
	}
	classes = append(classes, readUnmod)

	// Class 3: invalidating write miss to an unmodified line — the
	// memory path plus the broadcast: the data reply travels the home
	// column and the requester's row carrying the purge; every other row
	// bus carries one short purge operation; the requester's column
	// carries the INSERT. (n+1 row operations and 3 column operations.)
	inval := class{
		p: puW,
		hops: []hop{
			{rowBus, tAddr}, {colBus, tAddr}, {memMod, memoryLatency},
			{colBus, sEff(tData, leg1)}, {rowBus, sEff(tData, leg2)},
		},
	}
	inval.extra[rowBus].time += float64(p.N-1) * tAddr // purges on the other rows
	inval.extra[rowBus].visits += float64(p.N - 1)
	inval.extra[colBus].time += tAddr // INSERT
	inval.extra[colBus].visits++
	classes = append(classes, inval)

	return classes
}

// sEff bounds the effective critical-path service by the occupancy: an
// overlap optimization never makes a hop slower than the raw transfer.
func sEff(occupancy, effective float64) float64 {
	return math.Min(occupancy, effective)
}

// Solve evaluates the model.
func Solve(p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	classes := p.build()
	n := float64(p.N)
	m := n * n               // customers
	z := 1e6 / p.RequestRate // think time ns (rate is per ms)

	// Aggregate per-center demands per transaction for one specific
	// center of each type (divide by n by symmetry). demand is bus-
	// seconds per transaction; workSq accumulates p·s², the second
	// moment needed for the FIFO unfinished-work estimate.
	var demand, workSq [nCenters]float64
	var delay float64
	for _, cl := range classes {
		for _, h := range cl.hops {
			demand[h.c] += cl.p * h.s / n
			workSq[h.c] += cl.p * h.s * h.s / n
		}
		for c := center(0); c < nCenters; c++ {
			demand[c] += cl.p * cl.extra[c].time / n
			if cl.extra[c].visits > 0 {
				s := cl.extra[c].time / cl.extra[c].visits
				workSq[c] += cl.p * cl.extra[c].visits * s * s / n
			}
		}
		delay += cl.p * cl.delay
	}

	// Fixed point on throughput. The wait at a FIFO center is the
	// expected unfinished work an arrival finds. With arrival rate a·X
	// (arrival-theorem correction (M-1)/M for a closed network), the
	// work balance W = a·X·(W·D + SQ/2) gives the M/G/1-like closed
	// form W = a·X·SQ/2 / (1 − a·X·D); the denominator shrinking to
	// zero is saturation, which the closed loop resolves by lowering X.
	x := m / (z + delay) // optimistic start
	// The bottleneck center caps throughput: X ≤ 1/max(D).
	xCap := math.Inf(1)
	for c := center(0); c < nCenters; c++ {
		if demand[c] > 0 && 1/demand[c] < xCap {
			xCap = 1 / demand[c]
		}
	}
	if x > xCap {
		x = xCap
	}
	var wait [nCenters]float64
	for iter := 0; iter < 20000; iter++ {
		a := x * (m - 1) / m
		for c := center(0); c < nCenters; c++ {
			den := 1 - a*demand[c]
			if den < 1e-6 {
				den = 1e-6
			}
			wait[c] = a * workSq[c] / 2 / den
		}
		r := delay
		for _, cl := range classes {
			for _, h := range cl.hops {
				r += cl.p * (wait[h.c] + h.s)
			}
		}
		xNew := m / (z + r)
		if xNew > xCap {
			xNew = xCap
		}
		// Damp for stability near saturation.
		xNew = 0.5*x + 0.5*xNew
		if math.Abs(xNew-x) <= 1e-12*math.Max(1e-12, x) {
			x = xNew
			break
		}
		x = xNew
	}

	r := m/x - z
	res := Result{
		Efficiency: z / (z + r),
		Response:   r,
		RowUtil:    x * demand[rowBus],
		ColUtil:    x * demand[colBus],
		MemUtil:    x * demand[memMod],
		Throughput: x * 1e9, // x is per ns
	}
	return res, nil
}

// MustSolve is Solve but panics on error.
func MustSolve(p Params) Result {
	r, err := Solve(p)
	if err != nil {
		panic(err)
	}
	return r
}
