package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.1, 1}, {0.25, 3}, {0.5, 5}, {0.75, 8}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %g, want NaN", got)
	}
}

func TestSummarizeReportsTailOnlyWithTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort a copy
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		tailQ float64
		tail  float64
	}{
		{9, 0, 0},
		{99, 0, 0},
		{100, 0.9, 90},
		{999, 0.9, 900},
		{1000, 0.99, 990},
		{10000, 0.999, 9990},
	} {
		xs := samples(c.n)
		s := summarize(xs)
		if s.N != c.n || s.TailQ != c.tailQ || s.Tail != c.tail {
			t.Errorf("n=%d: got n=%d tail p%g=%g, want p%g=%g", c.n, s.N, 100*s.TailQ, s.Tail, 100*c.tailQ, c.tail)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("n=%d: summarize reordered its input", c.n)
		}
	}
	s := summarize([]float64{4, 1, 3, 2})
	if s.Median != 2 || s.Q1 != 1 || s.Q3 != 3 {
		t.Errorf("summarize(4 1 3 2) = median %g q1 %g q3 %g, want 2 1 3", s.Median, s.Q1, s.Q3)
	}
}

func TestFailuresSortLastAsInfiniteLatency(t *testing.T) {
	xs := []float64{1, math.Inf(1), 2, 3}
	if got := percentile(xs, 0.5); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := percentile(xs, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with one failure in four = %g, want +Inf", got)
	}
	if got := finite(math.Inf(1)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %g, want MaxFloat64", got)
	}
	if got := finite(math.NaN()); got != 0 {
		t.Errorf("finite(NaN) = %g, want 0", got)
	}
}
