package lloyd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/vec"
)

func wellSeparated(t *testing.T, k, dim, n int, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{K: k, Dim: dim, N: n, MinSeparation: 25, StdDev: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRunRecoversWellSeparatedClusters(t *testing.T) {
	ds := wellSeparated(t, 4, 2, 2000, 1)
	res, err := Run(ds.Points, Config{K: 4, Seeding: SeedPlusPlus, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centers) != 4 {
		t.Fatalf("centers = %d", len(res.Centers))
	}
	// Every true center must have a discovered center within a few sigma.
	for _, truth := range ds.Centers {
		_, d2 := vec.NearestIndex(truth, res.Centers)
		if math.Sqrt(d2) > 3 {
			t.Errorf("no discovered center near truth %v (nearest %.2f away)", truth, math.Sqrt(d2))
		}
	}
	if !res.Converged {
		t.Error("expected convergence on an easy dataset")
	}
}

func TestRunValidation(t *testing.T) {
	pts := []vec.Vector{{1}, {2}}
	if _, err := Run(nil, Config{K: 1}); err != ErrNoPoints {
		t.Errorf("err = %v, want ErrNoPoints", err)
	}
	if _, err := Run(pts, Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Run(pts, Config{K: 5}); err == nil {
		t.Error("K > n accepted")
	}
	if _, err := RunFrom(pts, nil, Config{}); err == nil {
		t.Error("no initial centers accepted")
	}
	if _, err := RunFrom(nil, pts, Config{}); err != ErrNoPoints {
		t.Error("empty points accepted by RunFrom")
	}
}

func TestRunFromDoesNotMutateInitial(t *testing.T) {
	pts := []vec.Vector{{0}, {1}, {10}, {11}}
	initial := []vec.Vector{{0.2}, {10.2}}
	snapshot := vec.CloneAll(initial)
	if _, err := RunFrom(pts, initial, Config{}); err != nil {
		t.Fatal(err)
	}
	for i := range initial {
		if !vec.Equal(initial[i], snapshot[i]) {
			t.Fatal("RunFrom mutated its initial centers")
		}
	}
}

func TestEmptyClusterKeepsStaleCenter(t *testing.T) {
	// Second center starts far from all points and captures none; it must
	// survive unchanged rather than collapse to NaN.
	pts := []vec.Vector{{0, 0}, {1, 0}, {0, 1}}
	res, err := RunFrom(pts, []vec.Vector{{0.3, 0.3}, {100, 100}}, Config{MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(res.Centers[1], vec.Vector{100, 100}) {
		t.Errorf("empty cluster center moved to %v", res.Centers[1])
	}
	for _, c := range res.Centers {
		for _, x := range c {
			if math.IsNaN(x) {
				t.Fatal("NaN center")
			}
		}
	}
}

func TestWCSSAndAverageDistance(t *testing.T) {
	pts := []vec.Vector{{0}, {2}, {10}, {12}}
	centers := []vec.Vector{{1}, {11}}
	assign := Assign(pts, centers)
	if got := WCSS(pts, centers, assign); got != 4 {
		t.Errorf("WCSS = %v, want 4", got)
	}
	if got := AverageDistance(pts, centers, assign); got != 1 {
		t.Errorf("AverageDistance = %v, want 1", got)
	}
	if got := AverageDistance(nil, centers, nil); got != 0 {
		t.Errorf("AverageDistance(empty) = %v", got)
	}
}

func TestSeedRandomDistinct(t *testing.T) {
	pts := make([]vec.Vector, 50)
	for i := range pts {
		pts[i] = vec.Vector{float64(i)}
	}
	rng := rand.New(rand.NewSource(1))
	centers := Seed(pts, 10, SeedRandom, rng)
	if len(centers) != 10 {
		t.Fatalf("centers = %d", len(centers))
	}
	seen := map[float64]bool{}
	for _, c := range centers {
		if seen[c[0]] {
			t.Fatalf("duplicate random seed center %v", c)
		}
		seen[c[0]] = true
	}
}

func TestSeedPlusPlusSpreadsCenters(t *testing.T) {
	// Two tight far-apart blobs: k-means++ with k=2 must pick one seed in
	// each blob essentially always.
	var pts []vec.Vector
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		pts = append(pts, vec.Vector{r.NormFloat64() * 0.1})
		pts = append(pts, vec.Vector{1000 + r.NormFloat64()*0.1})
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		centers := Seed(pts, 2, SeedPlusPlus, rng)
		d := math.Abs(centers[0][0] - centers[1][0])
		if d < 500 {
			t.Fatalf("trial %d: ++ seeds landed in the same blob (dist %.1f)", trial, d)
		}
	}
}

func TestBestOfImprovesOrEquals(t *testing.T) {
	ds := wellSeparated(t, 6, 2, 600, 9)
	single, err := Run(ds.Points, Config{K: 6, Seeding: SeedRandom, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	best, err := BestOf(ds.Points, Config{K: 6, Seeding: SeedRandom, Seed: 123}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if best.WCSS > single.WCSS+1e-9 {
		t.Errorf("BestOf WCSS %.3f worse than single run %.3f", best.WCSS, single.WCSS)
	}
}

// TestPropWCSSNonIncreasingAcrossIterations: running more Lloyd iterations
// never increases WCSS — the fundamental monotonicity of the algorithm.
func TestPropWCSSNonIncreasingAcrossIterations(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(100)
		pts := make([]vec.Vector, n)
		for i := range pts {
			pts[i] = vec.Vector{r.NormFloat64() * 10, r.NormFloat64() * 10}
		}
		k := 2 + r.Intn(4)
		rng := rand.New(rand.NewSource(seed + 1))
		initial := Seed(pts, k, SeedRandom, rng)
		prev := math.Inf(1)
		for iters := 1; iters <= 6; iters++ {
			res, err := RunFrom(pts, initial, Config{MaxIterations: iters, Epsilon: 1e-300})
			if err != nil {
				return false
			}
			if res.WCSS > prev+1e-6 {
				return false
			}
			prev = res.WCSS
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropAssignmentIdempotentAtConvergence: after convergence, re-running
// the assignment step changes nothing.
func TestPropAssignmentIdempotentAtConvergence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(100)
		pts := make([]vec.Vector, n)
		for i := range pts {
			pts[i] = vec.Vector{r.NormFloat64() * 5, r.NormFloat64() * 5}
		}
		res, err := Run(pts, Config{K: 3, Seed: seed})
		if err != nil || !res.Converged {
			return err == nil // non-convergence within 100 iters is not a failure of this property
		}
		again := Assign(pts, res.Centers)
		for i := range again {
			if again[i] != res.Assignment[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropCentersAreCentroids: at convergence every non-empty cluster's
// center equals the centroid of its members.
func TestPropCentersAreCentroids(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pts := make([]vec.Vector, 80)
		for i := range pts {
			pts[i] = vec.Vector{r.NormFloat64() * 3, r.NormFloat64() * 3}
		}
		res, err := Run(pts, Config{K: 4, Seed: seed})
		if err != nil || !res.Converged {
			return err == nil
		}
		groups := make(map[int][]vec.Vector)
		for i, a := range res.Assignment {
			groups[a] = append(groups[a], pts[i])
		}
		for c, members := range groups {
			if !vec.ApproxEqual(vec.Mean(members), res.Centers[c], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAssignMatchesNearestIndex: the batched assignment gives every point
// the index a per-point vec.NearestIndex scan gives it — on exact ties
// (the lower index wins), signed zeros, coordinates whose squares
// overflow so that every distance is +Inf (-1) or only some are, point
// counts off the kernel's tile and SIMD widths, and no centers at all.
func TestAssignMatchesNearestIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	negZero := math.Copysign(0, -1)
	for _, dim := range []int{1, 3, 16, 17} {
		centers := make([]vec.Vector, 5)
		for c := range centers {
			centers[c] = make(vec.Vector, dim)
			for j := range centers[c] {
				centers[c][j] = float64(rng.Intn(5))
			}
		}
		centers[3] = vec.Clone(centers[1]) // a duplicate center ties exactly
		centers[4][0] = 1e200              // overflows against ordinary points
		var points []vec.Vector
		for i := 0; i < 517; i++ {
			p := make(vec.Vector, dim)
			for j := range p {
				switch rng.Intn(6) {
				case 0:
					p[j] = negZero
				case 1:
					p[j] = float64(rng.Intn(5)) // ties between centers on a grid
				default:
					p[j] = rng.NormFloat64() * 3
				}
			}
			switch i % 50 {
			case 7:
				p[0] = -1e200 // every distance overflows
			case 8:
				p[0] = 1e200 // only the far center is finite
			}
			points = append(points, p)
		}
		got := Assign(points, centers)
		for i, p := range points {
			if want, _ := vec.NearestIndex(p, centers); got[i] != want {
				t.Fatalf("dim %d point %d %v: Assign %d, NearestIndex %d", dim, i, p, got[i], want)
			}
		}
		if got[7] != -1 || got[8] != 4 {
			t.Errorf("dim %d: overflowing points assigned %d and %d, want -1 and 4", dim, got[7], got[8])
		}
		for i, c := range Assign(points[:3], nil) {
			if c != -1 {
				t.Errorf("no centers: point %d assigned %d", i, c)
			}
		}
	}
}
