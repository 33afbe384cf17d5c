package main

import (
	"math"
	"sort"
)

// summary is one metric as reported: the median over the samples taken,
// with enough beside it (quartiles, count, the uncalibrated median, the
// samples themselves) for a reader to judge the spread and to undo the
// calibration.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// RawMedian is the median of the same samples before calibration,
	// for host-time metrics only.
	RawMedian  float64   `json:"raw_median,omitempty"`
	Samples    []float64 `json:"samples,omitempty"`
	RawSamples []float64 `json:"raw_samples,omitempty"`
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Value)
}

// uncertainty is the half-width of the interval within which the median
// is known: 1.57 × the quartile distance ÷ √n, the notch of a box plot
// (McGill, Tukey and Larsen 1978). Two medians whose intervals do not
// overlap differ at roughly the 95 % level.
func (s summary) uncertainty() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.57 * math.Abs(s.Q3-s.Q1) / math.Sqrt(float64(s.N))
}

func summarize(unit string, samples []float64) summary {
	q1, med, q3 := quartiles(samples)
	return summary{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (the default of Python's statistics.quantiles, which
// the acceptance procedure uses). Fewer than two samples have no spread.
func quartiles(samples []float64) (q1, med, q3 float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	at := func(p float64) float64 {
		pos := p*float64(len(v)+1) - 1
		if pos <= 0 {
			return v[0]
		}
		if pos >= float64(len(v)-1) {
			return v[len(v)-1]
		}
		i := int(pos)
		return v[i] + (pos-float64(i))*(v[i+1]-v[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(samples []float64) float64 {
	_, med, _ := quartiles(samples)
	return med
}

// percentile returns the value at rank p (0..1) of the sorted samples,
// by nearest rank, so the reported figure is one that was observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
