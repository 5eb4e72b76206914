package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDot(t *testing.T) {
	cases := []struct {
		a, b Vector
		want float64
	}{
		{Vector{1, 2, 3}, Vector{4, 5, 6}, 32},
		{Vector{0, 0}, Vector{1, 1}, 0},
		{Vector{-1, 1}, Vector{1, 1}, 0},
		{Vector{2}, Vector{3}, 6},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); got != c.want {
			t.Errorf("Dot(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dot(Vector{1}, Vector{1, 2})
}

func TestNorm(t *testing.T) {
	if got := Norm(Vector{3, 4}); got != 5 {
		t.Errorf("Norm(3,4) = %v, want 5", got)
	}
	if got := Norm2(Vector{3, 4}); got != 25 {
		t.Errorf("Norm2(3,4) = %v, want 25", got)
	}
	if got := Norm(Vector{}); got != 0 {
		t.Errorf("Norm(empty) = %v, want 0", got)
	}
}

func TestDist(t *testing.T) {
	a, b := Vector{1, 1}, Vector{4, 5}
	if got := Dist(a, b); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := Dist2(a, b); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if got := Dist(a, a); got != 0 {
		t.Errorf("Dist(a,a) = %v, want 0", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a, b := Vector{1, 2}, Vector{3, 5}
	if got := Add(a, b); !Equal(got, Vector{4, 7}) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a); !Equal(got, Vector{2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := Scale(a, 3); !Equal(got, Vector{3, 6}) {
		t.Errorf("Scale = %v", got)
	}
	// Inputs untouched.
	if !Equal(a, Vector{1, 2}) || !Equal(b, Vector{3, 5}) {
		t.Error("inputs modified by pure operations")
	}
}

func TestAddInPlace(t *testing.T) {
	a := Vector{1, 2}
	AddInPlace(a, Vector{10, 20})
	if !Equal(a, Vector{11, 22}) {
		t.Errorf("AddInPlace = %v", a)
	}
}

func TestScaleInPlace(t *testing.T) {
	a := Vector{2, 4}
	ScaleInPlace(a, 0.5)
	if !Equal(a, Vector{1, 2}) {
		t.Errorf("ScaleInPlace = %v", a)
	}
}

func TestMean(t *testing.T) {
	got := Mean([]Vector{{0, 0}, {2, 4}, {4, 2}})
	if !Equal(got, Vector{2, 2}) {
		t.Errorf("Mean = %v, want (2,2)", got)
	}
}

func TestMeanEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Mean of empty set")
		}
	}()
	Mean(nil)
}

func TestCloneIndependence(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Clone(a)
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares backing array")
	}
	vs := CloneAll([]Vector{{1}, {2}})
	vs[0][0] = 42
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(Vector{1, 2}, Vector{1.0000001, 2}, 1e-6) {
		t.Error("ApproxEqual should accept within eps")
	}
	if ApproxEqual(Vector{1, 2}, Vector{1.1, 2}, 1e-6) {
		t.Error("ApproxEqual should reject beyond eps")
	}
	if ApproxEqual(Vector{1}, Vector{1, 2}, 1) {
		t.Error("ApproxEqual should reject dim mismatch")
	}
}

func TestProject(t *testing.T) {
	// Projection of (3,4) onto x-axis direction (2,0) is 3.
	if got := Project(Vector{3, 4}, Vector{2, 0}); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Project = %v, want 3", got)
	}
	// Zero direction: defined as 0.
	if got := Project(Vector{3, 4}, Vector{0, 0}); got != 0 {
		t.Errorf("Project onto zero vector = %v, want 0", got)
	}
	// Projection onto itself is its norm.
	v := Vector{3, 4}
	if got := Project(v, v); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Project(v,v) = %v, want |v|=5", got)
	}
}

// TestAxisProjectMatchesProject pins Axis.Project, the per-point form the
// normality tests use, to Project bit for bit, zero direction included.
func TestAxisProjectMatchesProject(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, dim := range []int{1, 2, 3, 7, 16, 64} {
		for trial := 0; trial < 50; trial++ {
			d := make(Vector, dim)
			if trial > 0 { // trial 0 keeps the zero direction
				for i := range d {
					d[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
				}
			}
			axis := NewAxis(d)
			for k := 0; k < 20; k++ {
				p := make(Vector, dim)
				for i := range p {
					p[i] = rng.NormFloat64()*50 + float64(rng.Intn(100))
				}
				got, want := axis.Project(p), Project(p, d)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dim %d: Axis.Project = %v, Project = %v", dim, got, want)
				}
			}
		}
	}
}

func TestNearestIndex(t *testing.T) {
	centers := []Vector{{0, 0}, {10, 0}, {5, 5}}
	idx, d2 := NearestIndex(Vector{9, 1}, centers)
	if idx != 1 || !almostEqual(d2, 2, 1e-12) {
		t.Errorf("NearestIndex = (%d, %v), want (1, 2)", idx, d2)
	}
	// Empty centers.
	idx, d2 = NearestIndex(Vector{1}, nil)
	if idx != -1 || !math.IsInf(d2, 1) {
		t.Errorf("NearestIndex(empty) = (%d,%v)", idx, d2)
	}
	// Tie resolves to lowest index.
	idx, _ = NearestIndex(Vector{5, 0}, []Vector{{0, 0}, {10, 0}})
	if idx != 0 {
		t.Errorf("tie should resolve to index 0, got %d", idx)
	}
}

func TestWeightedPoint(t *testing.T) {
	w := NewWeightedPoint(Vector{1, 2})
	w.Merge(NewWeightedPoint(Vector{3, 4}))
	w.Merge(NewWeightedPoint(Vector{5, 6}))
	if w.Count != 3 {
		t.Fatalf("Count = %d, want 3", w.Count)
	}
	if got := w.Centroid(); !ApproxEqual(got, Vector{3, 4}, 1e-12) {
		t.Errorf("Centroid = %v, want (3,4)", got)
	}
}

func TestWeightedPointMergeIntoZero(t *testing.T) {
	var w WeightedPoint
	w.Merge(NewWeightedPoint(Vector{2, 4}))
	if w.Count != 1 || !Equal(w.Sum, Vector{2, 4}) {
		t.Errorf("merge into zero value = %+v", w)
	}
}

func TestWeightedPointCentroidEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var w WeightedPoint
	w.Centroid()
}

func TestWeightedPointByteSize(t *testing.T) {
	w := NewWeightedPoint(Vector{1, 2, 3})
	if got := w.ByteSize(); got != 8*3+16 {
		t.Errorf("ByteSize = %d, want 40", got)
	}
}

// --- property tests -------------------------------------------------------

// randVecPair produces two same-dimension vectors from quick's generator
// seed values.
func randVecPair(r *rand.Rand) (Vector, Vector) {
	d := 1 + r.Intn(8)
	a := make(Vector, d)
	b := make(Vector, d)
	for i := 0; i < d; i++ {
		a[i] = r.NormFloat64() * 100
		b[i] = r.NormFloat64() * 100
	}
	return a, b
}

func TestPropDistanceSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVecPair(r)
		return Dist(a, b) == Dist(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVecPair(r)
		c := make(Vector, len(a))
		for i := range c {
			c[i] = r.NormFloat64() * 100
		}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDistanceNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVecPair(r)
		return Dist2(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropProjectionLinearity(t *testing.T) {
	// Project(a+b, v) == Project(a, v) + Project(b, v)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVecPair(r)
		v := make(Vector, len(a))
		for i := range v {
			v[i] = r.NormFloat64()
		}
		if Norm(v) == 0 {
			return true
		}
		lhs := Project(Add(a, b), v)
		rhs := Project(a, v) + Project(b, v)
		return almostEqual(lhs, rhs, 1e-6*(1+math.Abs(lhs)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMeanMinimizesSumSquares(t *testing.T) {
	// The centroid minimizes Σ|x−c|² — perturbing it can only increase it.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		d := 1 + r.Intn(5)
		pts := make([]Vector, n)
		for i := range pts {
			pts[i] = make(Vector, d)
			for j := range pts[i] {
				pts[i][j] = r.NormFloat64() * 10
			}
		}
		m := Mean(pts)
		perturbed := Clone(m)
		perturbed[r.Intn(d)] += 0.5
		var sm, sp float64
		for _, p := range pts {
			sm += Dist2(p, m)
			sp += Dist2(p, perturbed)
		}
		return sm <= sp+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropWeightedPointMergeMatchesMean(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		d := 1 + r.Intn(4)
		pts := make([]Vector, n)
		var w WeightedPoint
		for i := range pts {
			pts[i] = make(Vector, d)
			for j := range pts[i] {
				pts[i][j] = r.NormFloat64()
			}
			w.Merge(NewWeightedPoint(pts[i]))
		}
		return ApproxEqual(w.Centroid(), Mean(pts), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
