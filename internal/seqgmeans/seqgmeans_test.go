package seqgmeans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/vec"
)

func mixture(t *testing.T, k, dim, n int, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{K: k, Dim: dim, N: n, MinSeparation: 20, StdDev: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRunRecoversK(t *testing.T) {
	ds := mixture(t, 8, 3, 8000, 1)
	res, err := Run(ds.Points, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 8 || res.K > 12 {
		t.Fatalf("discovered k=%d for true k=8", res.K)
	}
	for _, truth := range ds.Centers {
		_, d2 := vec.NearestIndex(truth, res.Centers)
		if math.Sqrt(d2) > 3 {
			t.Errorf("no center near truth %v", truth)
		}
	}
	if res.Splits < 7 {
		t.Errorf("splits = %d, need ≥ k-1", res.Splits)
	}
	if res.Tests < res.Splits {
		t.Errorf("tests (%d) < splits (%d)", res.Tests, res.Splits)
	}
}

func TestRunSingleGaussian(t *testing.T) {
	ds := mixture(t, 1, 4, 3000, 3)
	res, err := Run(ds.Points, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Errorf("single Gaussian split into %d", res.K)
	}
}

func TestRunEmpty(t *testing.T) {
	if _, err := Run(nil, Config{}); err == nil {
		t.Error("empty input accepted")
	}
}

func TestRunMaxK(t *testing.T) {
	ds := mixture(t, 16, 2, 8000, 5)
	res, err := Run(ds.Points, Config{MaxK: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 4 {
		t.Errorf("MaxK=4 violated: k=%d", res.K)
	}
}

func TestPrincipalComponentKnownCovariance(t *testing.T) {
	// Points stretched along (1,1)/√2: the principal direction must align
	// with it and λ must approximate the large variance.
	r := rand.New(rand.NewSource(9))
	pts := make([]vec.Vector, 4000)
	for i := range pts {
		a := r.NormFloat64() * 10 // along (1,1)/√2
		b := r.NormFloat64()      // along (1,-1)/√2
		pts[i] = vec.Vector{(a + b) / math.Sqrt2, (a - b) / math.Sqrt2}
	}
	dir, lambda := PrincipalComponent(pts, 100, r)
	if math.Abs(vec.Norm(dir)-1) > 1e-9 {
		t.Fatalf("direction not unit: %v", dir)
	}
	cos := math.Abs(vec.Dot(dir, vec.Vector{1 / math.Sqrt2, 1 / math.Sqrt2}))
	if cos < 0.99 {
		t.Errorf("principal direction %v misaligned (|cos|=%.3f)", dir, cos)
	}
	if lambda < 80 || lambda > 120 {
		t.Errorf("lambda = %v, want ≈100", lambda)
	}
}

func TestPrincipalComponentDegenerate(t *testing.T) {
	pts := []vec.Vector{{1, 2}, {1, 2}, {1, 2}}
	r := rand.New(rand.NewSource(1))
	dir, lambda := PrincipalComponent(pts, 20, r)
	if lambda != 0 {
		t.Errorf("lambda = %v for constant points", lambda)
	}
	if len(dir) != 2 {
		t.Errorf("direction dim %d", len(dir))
	}
}

// TestPropPrincipalComponentDominance: for anisotropic 2-D Gaussians, the
// power iteration must pick the stretched axis.
func TestPropPrincipalComponentDominance(t *testing.T) {
	f := func(seed int64, angleRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		angle := float64(angleRaw) / 255 * math.Pi
		ux, uy := math.Cos(angle), math.Sin(angle)
		pts := make([]vec.Vector, 800)
		for i := range pts {
			a := r.NormFloat64() * 8
			b := r.NormFloat64() * 0.5
			pts[i] = vec.Vector{a*ux - b*uy, a*uy + b*ux}
		}
		dir, _ := PrincipalComponent(pts, 60, r)
		cos := math.Abs(dir[0]*ux + dir[1]*uy)
		return cos > 0.97
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropKNeverBelowOne: any input yields at least one cluster and a
// complete assignment.
func TestPropKNeverBelowOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(300)
		pts := make([]vec.Vector, n)
		for i := range pts {
			pts[i] = vec.Vector{r.NormFloat64() * 20, r.NormFloat64() * 20}
		}
		res, err := Run(pts, Config{Seed: seed, MaxK: 32})
		if err != nil || res.K < 1 {
			return false
		}
		if len(res.Assignment) != n {
			return false
		}
		for _, a := range res.Assignment {
			if a < 0 || a >= res.K {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
