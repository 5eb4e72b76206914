package main

import (
	"math"
	"slices"
)

// Summary describes the samples one run took of one metric: the count,
// the median and the quartiles, and the highest tail percentile the
// sample supports.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailQ and Tail give the highest of p90, p99 and p99.9 that has at
	// least ten samples beyond it. Both are zero when fewer than 100
	// samples were taken: a tail read from fewer samples is one or two
	// outliers, not a percentile.
	TailQ float64 `json:"tail_q,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least a share q of the samples at or below it.
// It is always a value that was measured. Failed operations enter as
// +Inf and therefore sort last.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// summarize computes the Summary of xs without reordering xs.
func summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	s := Summary{
		N:      len(sorted),
		Median: quantile(sorted, 0.5),
		Q1:     quantile(sorted, 0.25),
		Q3:     quantile(sorted, 0.75),
	}
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if float64(len(sorted))*(1-q) >= minBeyond-1e-9 {
			s.TailQ, s.Tail = q, quantile(sorted, q)
		}
	}
	return s
}

// percentile is the nearest-rank q-quantile of xs, which it leaves in
// order.
func percentile(xs []float64, q float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return quantile(sorted, q)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean is the arithmetic mean of xs, NaN when there are none.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
