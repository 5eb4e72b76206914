// Package stats implements the statistical machinery G-means depends on:
// sample moments, the standard normal distribution, sample normalization,
// and the Anderson–Darling test of normality with the small-sample
// correction used by Hamerly & Elkan ("Learning the k in k-means", NIPS
// 2003), which is the test the reproduced paper runs inside its
// TestClusters MapReduce job.
//
// The test sorts its sample with a radix sort on the float bits, a byte
// per pass. It gives sort.Float64s's order, NaNs first, and A² is the
// same to the bit as with the comparison sort
// (TestAndersonDarlingMatchesOracle).
package stats

import (
	"errors"
	"math"
)

// ErrSampleTooSmall is returned by tests that cannot produce a reliable
// decision on the given sample. The paper uses a minimum of 20 points for
// mapper-side tests ("Anderson-Darling ... reliable even with small samples
// (as a rule of thumb, a minimum size of 8) ... we use a threshold of 20").
var ErrSampleTooSmall = errors.New("stats: sample too small for a reliable test")

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs. Samples of
// size < 2 have variance 0 by convention.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Normalize rescales xs in place to zero mean and unit (sample) standard
// deviation, as step 5 of the G-means per-cluster procedure requires, and
// returns the (mean, stddev) that were removed. A sample with zero standard
// deviation (all points identical) is left centered but unscaled and the
// returned stddev is 0; callers treat such degenerate clusters as already
// Gaussian (there is nothing to split).
func Normalize(xs []float64) (mean, std float64) {
	mean = Mean(xs)
	std = StdDev(xs)
	if std == 0 {
		for i := range xs {
			xs[i] -= mean
		}
		return mean, 0
	}
	inv := 1 / std
	for i := range xs {
		xs[i] = (xs[i] - mean) * inv
	}
	return mean, std
}

// NormalCDF returns Φ(x), the standard normal cumulative distribution
// function, via the complementary error function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p) for p in (0,1) using the Acklam rational
// approximation (relative error < 1.15e-9), refined with one Halley step.
// It panics for p outside (0,1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile requires p in (0,1)")
	}
	// Coefficients of the Acklam approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One step of Halley's method against the CDF for full double accuracy.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// ADResult carries the outcome of an Anderson–Darling normality test.
type ADResult struct {
	A2       float64 // raw A² statistic
	A2Star   float64 // A² with the Hamerly–Elkan small-sample correction
	PValue   float64 // approximate p-value for A2Star (case: μ, σ estimated)
	N        int     // sample size
	Critical float64 // critical value the statistic was compared against
	Normal   bool    // true when the Gaussian hypothesis is accepted
}

// AndersonDarling computes the A² statistic of xs against the standard
// normal distribution. The input must already be normalized (zero mean,
// unit variance); use ADTestNormalized or ADTest for the full pipeline.
// The input is sorted in place, NaNs first, as sort.Float64s orders it.
//
// Each value's clamped CDF f is evaluated once into an array; the sum
// then adds (2i+1)·(log f_i + log(1−f_{n−1−i})) in index order, the same
// terms in the same order as evaluating both CDFs inside the loop, so A²
// is the same to the bit.
func AndersonDarling(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sortFloats(xs)
	fn := float64(n)
	f := make([]float64, n)
	for i, x := range xs {
		// Clamp CDF values away from {0,1} so the logs stay finite for
		// extreme outliers; the clamp is far below any decision boundary.
		f[i] = clamp(NormalCDF(x), 1e-300, 1-1e-15)
	}
	var s float64
	for i, fi := range f {
		s += (2*float64(i+1) - 1) * (math.Log(fi) + math.Log(1-f[n-1-i]))
	}
	return -fn - s/fn
}

// sortFloats sorts xs ascending with NaNs first, the order sort.Float64s
// gives up to the placement of equal values (ties, ±0 and NaN payloads),
// which no caller can tell apart in A². It is an LSD radix sort, one byte
// per pass, on keys that order like the floats: the sign bit set for
// non-negative values, all bits flipped for negative ones.
func sortFloats(xs []float64) {
	keys := make([]uint64, 2*len(xs))
	src, dst := keys[:0], keys[len(xs):]
	nans := 0
	for _, x := range xs {
		if x != x {
			xs[nans] = x
			nans++
			continue
		}
		b := math.Float64bits(x)
		if b>>63 != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		src = append(src, b)
	}
	dst = dst[:len(src)]
	if len(src) == 0 {
		return // all NaN
	}
	var counts [8][256]int
	for _, k := range src {
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	for p := range counts {
		c := &counts[p]
		if c[byte(src[0]>>(8*p))] == len(src) {
			continue // every key has the same byte here
		}
		off := 0
		for i, m := range c {
			c[i] = off
			off += m
		}
		shift := uint(8 * p)
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	for i, k := range src {
		if k>>63 != 0 {
			k &^= 1 << 63
		} else {
			k = ^k
		}
		xs[nans+i] = math.Float64frombits(k)
	}
}

// A2Star applies the Hamerly–Elkan finite-sample correction
// A*² = A²·(1 + 4/n − 25/n²) used when mean and variance are estimated
// from the data (D'Agostino case 3 as cited by the G-means paper).
func A2Star(a2 float64, n int) float64 {
	fn := float64(n)
	return a2 * (1 + 4/fn - 25/(fn*fn))
}

// adPValue approximates the p-value of the corrected statistic for the
// "mean and variance unknown" case, using the D'Agostino & Stephens (1986)
// piecewise formulas. Accurate to a few units in the third decimal, which
// is ample for thresholding at the significance levels k-estimation uses.
func adPValue(aStar float64) float64 {
	switch {
	case aStar < 0.2:
		return 1 - math.Exp(-13.436+101.14*aStar-223.73*aStar*aStar)
	case aStar < 0.34:
		return 1 - math.Exp(-8.318+42.796*aStar-59.938*aStar*aStar)
	case aStar < 0.6:
		return math.Exp(0.9177 - 4.279*aStar - 1.38*aStar*aStar)
	default:
		return clamp(math.Exp(1.2937-5.709*aStar+0.0186*aStar*aStar), 0, 1)
	}
}

// criticalTable maps significance level α to the critical value of A*² for
// the composite-normality case (D'Agostino & Stephens, Table 4.7).
var criticalTable = []struct{ alpha, cv float64 }{
	{0.25, 0.470},
	{0.10, 0.631},
	{0.05, 0.752},
	{0.025, 0.873},
	{0.01, 1.035},
	{0.005, 1.159},
	{0.001, 1.550},   // extrapolated anchor between published points
	{0.0001, 1.8692}, // value used by Hamerly & Elkan
}

// CriticalValue returns the A*² critical value for significance level
// alpha, interpolating log-linearly in alpha between table anchors and
// extrapolating beyond them. Smaller alpha (stricter test) yields a larger
// critical value, i.e. fewer splits.
func CriticalValue(alpha float64) float64 {
	if alpha <= 0 {
		panic("stats: CriticalValue requires alpha > 0")
	}
	t := criticalTable
	if alpha >= t[0].alpha {
		return t[0].cv
	}
	last := len(t) - 1
	if alpha <= t[last].alpha {
		// Extrapolate using the slope of the final segment.
		return interpLog(t[last-1].alpha, t[last-1].cv, t[last].alpha, t[last].cv, alpha)
	}
	for i := 0; i < last; i++ {
		if alpha <= t[i].alpha && alpha >= t[i+1].alpha {
			return interpLog(t[i].alpha, t[i].cv, t[i+1].alpha, t[i+1].cv, alpha)
		}
	}
	return t[last].cv
}

func interpLog(a1, c1, a2, c2, alpha float64) float64 {
	l1, l2, l := math.Log(a1), math.Log(a2), math.Log(alpha)
	w := (l - l1) / (l2 - l1)
	return c1 + w*(c2-c1)
}

// ADTestNormalized runs the Anderson–Darling normality test on a sample
// that is already normalized to zero mean and unit variance. The sample is
// sorted in place. minN is the smallest sample size for which a decision is
// produced; below it ErrSampleTooSmall is returned.
func ADTestNormalized(xs []float64, alpha float64, minN int) (ADResult, error) {
	if len(xs) < minN {
		return ADResult{N: len(xs)}, ErrSampleTooSmall
	}
	a2 := AndersonDarling(xs)
	aStar := A2Star(a2, len(xs))
	cv := CriticalValue(alpha)
	return ADResult{
		A2:       a2,
		A2Star:   aStar,
		PValue:   adPValue(aStar),
		N:        len(xs),
		Critical: cv,
		Normal:   aStar <= cv,
	}, nil
}

// ADTest normalizes xs (in place) and runs the Anderson–Darling test as the
// G-means procedure prescribes: center, scale to unit variance, test
// against N(0,1) with the small-sample correction. A degenerate sample
// (zero variance) is reported Normal with A*²=0: a point mass offers no
// direction to split along.
func ADTest(xs []float64, alpha float64, minN int) (ADResult, error) {
	if len(xs) < minN {
		return ADResult{N: len(xs)}, ErrSampleTooSmall
	}
	if _, std := Normalize(xs); std == 0 {
		return ADResult{N: len(xs), Critical: CriticalValue(alpha), Normal: true}, nil
	}
	return ADTestNormalized(xs, alpha, minN)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
