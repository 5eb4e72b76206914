package xmeans

import (
	"math"
	"math/rand"
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/vec"
)

func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func mixture(t *testing.T, k, n int, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{K: k, Dim: 2, N: n, MinSeparation: 25, StdDev: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRunRecoversK(t *testing.T) {
	ds := mixture(t, 5, 2500, 1)
	res, err := Run(ds.Points, Config{KMax: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 5 || res.K > 8 {
		t.Fatalf("X-means found k=%d for true k=5", res.K)
	}
	for _, truth := range ds.Centers {
		_, d2 := vec.NearestIndex(truth, res.Centers)
		if math.Sqrt(d2) > 3 {
			t.Errorf("no center near truth %v", truth)
		}
	}
}

func TestRunSingleCluster(t *testing.T) {
	ds := mixture(t, 1, 800, 3)
	res, err := Run(ds.Points, Config{KMax: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Errorf("single Gaussian split into %d", res.K)
	}
}

func TestRunRespectsKMax(t *testing.T) {
	ds := mixture(t, 8, 2400, 4)
	res, err := Run(ds.Points, Config{KMax: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 3 {
		t.Errorf("KMax=3 violated: k=%d", res.K)
	}
}

// Regression: when every cluster passes the local split test in the same
// improve-structure round (16 well-separated Gaussians, collinear mixtures,
// ...), the per-cluster cap check must account for splits already accepted
// that round, or k doubles straight past KMax (observed k=16 with KMax=12 on
// collinear data before the fix).
func TestRunKMaxHoldsUnderSimultaneousSplits(t *testing.T) {
	ds := mixture(t, 16, 3200, 9)
	for _, kmax := range []int{3, 5, 6} {
		res, err := Run(ds.Points, Config{KMax: kmax, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.K > kmax {
			t.Errorf("KMax=%d violated: k=%d", kmax, res.K)
		}
	}
	// The collinear probe that originally surfaced the bug: three clusters
	// on a line in R^3 split aggressively on every axis.
	line := make([]vec.Vector, 900)
	rng := newTestRand(11)
	for i := range line {
		tt := float64(i%3)*30 + rng.NormFloat64()
		line[i] = vec.Vector{tt, 2 * tt, -tt}
	}
	res, err := Run(line, Config{KMax: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 12 {
		t.Errorf("collinear data: KMax=12 violated: k=%d", res.K)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{}); err == nil {
		t.Error("empty points accepted")
	}
}

func TestRunAssignmentConsistent(t *testing.T) {
	ds := mixture(t, 3, 900, 5)
	res, err := Run(ds.Points, Config{KMax: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != len(ds.Points) {
		t.Fatalf("assignment length %d", len(res.Assignment))
	}
	for i, a := range res.Assignment {
		if a < 0 || a >= res.K {
			t.Fatalf("assignment[%d] = %d out of range", i, a)
		}
	}
	if res.WCSS <= 0 {
		t.Errorf("WCSS = %v", res.WCSS)
	}
	if res.Rounds < 1 {
		t.Errorf("Rounds = %d", res.Rounds)
	}
}
