package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Unbiased variance of this classic sample is 32/7.
	if got := Variance(xs); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance(single) = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	mean, std := Normalize(xs)
	if math.Abs(mean-5.5) > 1e-12 {
		t.Errorf("removed mean = %v, want 5.5", mean)
	}
	if std <= 0 {
		t.Fatalf("std = %v, want > 0", std)
	}
	if m := Mean(xs); math.Abs(m) > 1e-12 {
		t.Errorf("post-normalize mean = %v, want 0", m)
	}
	if s := StdDev(xs); math.Abs(s-1) > 1e-12 {
		t.Errorf("post-normalize std = %v, want 1", s)
	}
}

func TestNormalizeDegenerate(t *testing.T) {
	xs := []float64{3, 3, 3, 3}
	_, std := Normalize(xs)
	if std != 0 {
		t.Fatalf("std = %v, want 0 for constant sample", std)
	}
	for _, x := range xs {
		if x != 0 {
			t.Errorf("constant sample should be centered to zeros, got %v", xs)
			break
		}
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) should panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestA2StarCorrection(t *testing.T) {
	// The correction factor (1 + 4/n − 25/n²) at n=100 is 1.0375.
	if got := A2Star(2, 100); math.Abs(got-2*1.0375) > 1e-12 {
		t.Errorf("A2Star = %v", got)
	}
}

func TestCriticalValueAnchorsAndMonotonicity(t *testing.T) {
	if got := CriticalValue(0.0001); got != 1.8692 {
		t.Errorf("CriticalValue(0.0001) = %v, want 1.8692 (Hamerly–Elkan)", got)
	}
	if got := CriticalValue(0.05); got != 0.752 {
		t.Errorf("CriticalValue(0.05) = %v, want 0.752", got)
	}
	// Stricter alpha ⇒ larger critical value.
	prev := 0.0
	for _, a := range []float64{0.5, 0.25, 0.1, 0.05, 0.01, 0.001, 0.0001, 0.00001} {
		cv := CriticalValue(a)
		if cv < prev {
			t.Errorf("CriticalValue not monotone at alpha=%v: %v < %v", a, cv, prev)
		}
		prev = cv
	}
}

func TestCriticalValuePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CriticalValue(0)
}

func normalSample(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	return xs
}

func uniformSample(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
	}
	return xs
}

func bimodalSample(n int, sep float64, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		m := -sep / 2
		if i%2 == 1 {
			m = sep / 2
		}
		xs[i] = m + r.NormFloat64()
	}
	return xs
}

func TestADAcceptsGaussian(t *testing.T) {
	accepted := 0
	const trials = 20
	for s := int64(0); s < trials; s++ {
		res, err := ADTest(normalSample(2000, s), 0.0001, 8)
		if err != nil {
			t.Fatal(err)
		}
		if res.Normal {
			accepted++
		}
	}
	// At alpha=0.0001 essentially every true-Gaussian sample must pass.
	if accepted < trials-1 {
		t.Errorf("accepted %d/%d Gaussian samples", accepted, trials)
	}
}

func TestADRejectsBimodal(t *testing.T) {
	rejected := 0
	const trials = 20
	for s := int64(0); s < trials; s++ {
		res, err := ADTest(bimodalSample(2000, 8, s), 0.0001, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Normal {
			rejected++
		}
	}
	if rejected != trials {
		t.Errorf("rejected only %d/%d strongly bimodal samples", rejected, trials)
	}
}

func TestADRejectsUniform(t *testing.T) {
	res, err := ADTest(uniformSample(5000, 1), 0.0001, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Normal {
		t.Errorf("uniform sample accepted as Gaussian (A*²=%v, cv=%v)", res.A2Star, res.Critical)
	}
}

func TestADSampleTooSmall(t *testing.T) {
	_, err := ADTest([]float64{1, 2, 3}, 0.0001, 20)
	if err != ErrSampleTooSmall {
		t.Errorf("err = %v, want ErrSampleTooSmall", err)
	}
}

func TestADDegenerateSampleIsNormal(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 7
	}
	res, err := ADTest(xs, 0.0001, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Normal {
		t.Error("constant sample should be accepted (nothing to split)")
	}
}

func TestADResultFields(t *testing.T) {
	res, err := ADTest(normalSample(500, 3), 0.05, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 500 {
		t.Errorf("N = %d", res.N)
	}
	if res.Critical != CriticalValue(0.05) {
		t.Errorf("Critical = %v", res.Critical)
	}
	if res.PValue < 0 || res.PValue > 1 {
		t.Errorf("PValue = %v out of [0,1]", res.PValue)
	}
	if res.A2Star < res.A2 {
		t.Errorf("A2Star (%v) should exceed A2 (%v) for n=500", res.A2Star, res.A2)
	}
}

// --- property tests -------------------------------------------------------

func TestPropADAffineInvariance(t *testing.T) {
	// The AD test normalizes first, so shifting and (positively) scaling a
	// sample must not change the decision or the statistic.
	f := func(seed int64, shiftRaw, scaleRaw uint8) bool {
		shift := float64(shiftRaw) - 128
		scale := 0.5 + float64(scaleRaw)/64
		xs := normalSample(300, seed)
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = x*scale + shift
		}
		a, err1 := ADTest(xs, 0.01, 8)
		b, err2 := ADTest(ys, 0.01, 8)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.A2Star-b.A2Star) < 1e-6 && a.Normal == b.Normal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropPValueMonotoneInStatistic(t *testing.T) {
	// Larger A*² ⇒ smaller p-value (non-strictly, across the piecewise
	// approximation boundaries).
	prev := math.Inf(1)
	for a := 0.01; a < 5; a += 0.01 {
		p := adPValue(a)
		if p > prev+1e-9 {
			t.Fatalf("p-value not monotone at A*²=%v: %v > %v", a, p, prev)
		}
		if p < 0 || p > 1 {
			t.Fatalf("p-value %v out of range at A*²=%v", p, a)
		}
		prev = p
	}
}

func TestPropNormalizeZeroMeanUnitVar(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()*50 + 10
		}
		_, std := Normalize(xs)
		if std == 0 {
			return true
		}
		return math.Abs(Mean(xs)) < 1e-9 && math.Abs(StdDev(xs)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropQuantileMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		a := 0.0001 + 0.9998*float64(aRaw)/65535
		b := 0.0001 + 0.9998*float64(bRaw)/65535
		if a > b {
			a, b = b, a
		}
		return NormalQuantile(a) <= NormalQuantile(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- bit identity against the comparison-sort formulation ----------------

// andersonDarlingOracle is the direct formulation of A²: comparison sort,
// then both clamped CDFs and both logs evaluated inside the loop.
// AndersonDarling must return the same bits.
func andersonDarlingOracle(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	fn := float64(n)
	var s float64
	for i, x := range xs {
		fi := clamp(NormalCDF(x), 1e-300, 1-1e-15)
		fj := clamp(NormalCDF(xs[n-1-i]), 1e-300, 1-1e-15)
		s += (2*float64(i+1) - 1) * (math.Log(fi) + math.Log(1-fj))
	}
	return -fn - s/fn
}

// hostileKind is a family of samples: Gaussian values with one in three
// drawn from pool instead, or, with all set, every value from pool.
type hostileKind struct {
	name string
	pool []float64
	all  bool
}

func (k hostileKind) sample(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
		if len(k.pool) > 0 && (k.all || r.Intn(3) == 0) {
			xs[i] = k.pool[r.Intn(len(k.pool))]
		}
	}
	return xs
}

// TestAndersonDarlingMatchesOracle: on hostile samples of every size class
// (below the test's minimum, small and mid-sized, and the benchmark's
// final cluster size) AndersonDarling returns the oracle's A² bit for bit,
// and leaves the sample sorted as sort.Float64s does: NaNs first, and
// equal to the oracle's order up to ties, ±0 and NaN payloads.
func TestAndersonDarlingMatchesOracle(t *testing.T) {
	zeros := []float64{0, math.Copysign(0, -1)}
	inf := []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64}
	denormal := []float64{math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1050, -0x1p-1060, 0x1p-1022}
	nan := []float64{math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123)}
	ties := []float64{-1, 0, 1, 2.5}
	kinds := []hostileKind{
		{"gauss", nil, false},
		{"ties", ties, true},
		{"zeros", zeros, false},
		{"all-zeros", zeros, true},
		{"inf", inf, false},
		{"denormal", denormal, false},
		{"nan", nan, false},
		{"all-nan", nan, true},
		{"mixed", slices.Concat(ties, zeros, inf, denormal, nan), false},
	}
	sizes := []int{0, 1, 2, 7, 19, 200, 1023, 1024, 1025, 6250}
	for _, n := range sizes {
		for _, kind := range kinds {
			for seed := int64(1); seed <= 3; seed++ {
				xs := kind.sample(n, seed)
				want := append([]float64(nil), xs...)
				wantA2 := andersonDarlingOracle(want)
				got := append([]float64(nil), xs...)
				gotA2 := AndersonDarling(got)
				name := fmt.Sprintf("%s n=%d seed=%d", kind.name, n, seed)
				if math.Float64bits(gotA2) != math.Float64bits(wantA2) {
					t.Fatalf("%s: A² = %v (%#x), oracle %v (%#x)", name,
						gotA2, math.Float64bits(gotA2), wantA2, math.Float64bits(wantA2))
				}
				for i := range want {
					if math.IsNaN(want[i]) != math.IsNaN(got[i]) || (!math.IsNaN(want[i]) && want[i] != got[i]) {
						t.Fatalf("%s: sorted[%d] = %v, sort.Float64s has %v", name, i, got[i], want[i])
					}
				}
			}
		}
	}
}
