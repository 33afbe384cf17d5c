// Package topology describes the Multicube family of interconnection
// topologies introduced in Section 6 of the paper: N = n^k processors,
// where each processor is connected to k buses and each bus is connected
// to n processors. A multi is a Multicube with k = 1; a hypercube is a
// Multicube with n = 2; the Wisconsin Multicube is the two-dimensional
// case (k = 2) with n scaling to about 32.
//
// Multicube carries only the scalability formulas the paper derives for
// the family (bus counts, bandwidth per processor, invalidation cost);
// the machine itself is the k = 2 case, and Grid is its addressing:
// row-major node IDs, (row, column) coordinates and the home column that
// interleaves memory across the column buses.
//
// The package participates in the explorer's determinism contract: no
// wall clock, no map-order dependence, no scheduling outside the chooser
// seam. multicube-vet enforces this (see internal/analysis).
//
//multicube:deterministic
package topology

import "fmt"

// Multicube describes an n^k Multicube.
type Multicube struct {
	// N is the number of processors per bus (the paper's n).
	N int
	// K is the number of dimensions — buses per processor (the paper's k).
	K int
}

// New validates and returns a Multicube description.
func New(n, k int) (Multicube, error) {
	if n < 2 {
		return Multicube{}, fmt.Errorf("topology: n = %d, need at least 2 processors per bus", n)
	}
	if k < 1 {
		return Multicube{}, fmt.Errorf("topology: k = %d, need at least 1 dimension", k)
	}
	// Guard against overflow of n^k for pathological configurations.
	p := 1
	for i := 0; i < k; i++ {
		if p > (1<<40)/n {
			return Multicube{}, fmt.Errorf("topology: n^k = %d^%d is too large", n, k)
		}
		p *= n
	}
	return Multicube{N: n, K: k}, nil
}

// MustNew is New but panics on error; for tests and fixed configurations.
func MustNew(n, k int) Multicube {
	m, err := New(n, k)
	if err != nil {
		panic(err)
	}
	return m
}

// Processors returns the total processor count N = n^k.
func (m Multicube) Processors() int {
	p := 1
	for i := 0; i < m.K; i++ {
		p *= m.N
	}
	return p
}

// Buses returns the total bus count k*n^(k-1) (Section 6).
func (m Multicube) Buses() int { return m.K * m.BusesPerDimension() }

// BusesPerDimension returns the number of buses in one dimension, n^(k-1).
func (m Multicube) BusesPerDimension() int {
	p := 1
	for i := 0; i < m.K-1; i++ {
		p *= m.N
	}
	return p
}

// BandwidthPerProcessor returns the paper's scaling figure k/n: total bus
// bandwidth divided by processor count, in units of single-bus bandwidth.
func (m Multicube) BandwidthPerProcessor() float64 {
	return float64(m.K) / float64(m.N)
}

// InvalidationBusOps returns the approximate number of bus operations an
// invalidating broadcast requires, (N-1)/(n-1) (Section 6).
func (m Multicube) InvalidationBusOps() float64 {
	return float64(m.Processors()-1) / float64(m.N-1)
}
