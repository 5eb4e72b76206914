package kmeansmr

import (
	"math"
	"testing"
	"time"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/vec"
)

// testEnv materializes a dataset into a fresh simulated DFS and returns
// the Env plus the in-memory points for sequential cross-checks.
func testEnv(t *testing.T, spec dataset.Spec, splitSize int) (Env, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(splitSize)
	ds.WriteToDFS(fs, "/data/points.txt")
	env := Env{
		FS:      fs,
		Cluster: mr.DefaultCluster().WithNodes(2),
		Input:   "/data/points.txt",
		Dim:     spec.Dim,
	}
	return env, ds
}

func TestEnvValidate(t *testing.T) {
	env, _ := testEnv(t, dataset.Spec{K: 2, Dim: 2, N: 10, Seed: 1}, 0)
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := env
	bad.FS = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil FS accepted")
	}
	bad = env
	bad.Input = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty input accepted")
	}
	bad = env
	bad.Dim = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero dim accepted")
	}
}

// TestIterateMatchesSequentialLloyd is the central correctness check of the
// MR k-means job: one MR iteration from given centers must produce exactly
// the centroids a sequential Lloyd assignment step produces.
func TestIterateMatchesSequentialLloyd(t *testing.T) {
	env, ds := testEnv(t, dataset.Spec{K: 4, Dim: 3, N: 2000, MinSeparation: 20, Seed: 2}, 4<<10)
	initial := []vec.Vector{ds.Centers[0], ds.Centers[1], ds.Centers[2], ds.Centers[3]}
	// Perturb so there is real movement.
	initial = vec.CloneAll(initial)
	for _, c := range initial {
		c[0] += 2
	}

	mrRes, err := Iterate(env, initial)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reference: one assignment + centroid step.
	assign := lloyd.Assign(ds.Points, initial)
	sums := make([]vec.WeightedPoint, len(initial))
	for i, p := range ds.Points {
		sums[assign[i]].Merge(vec.NewWeightedPoint(p))
	}
	for c := range initial {
		if sums[c].Count == 0 {
			continue
		}
		want := sums[c].Centroid()
		if !vec.ApproxEqual(mrRes.Centers[c], want, 1e-9) {
			t.Errorf("center %d: MR %v vs sequential %v", c, mrRes.Centers[c], want)
		}
		if mrRes.Sizes[c] != sums[c].Count {
			t.Errorf("size %d: MR %d vs sequential %d", c, mrRes.Sizes[c], sums[c].Count)
		}
	}
}

// TestIterateShuffleBoundedByCenters pins in-mapper combining: each map
// task sends at most one partial sum per center across the shuffle, so the
// shuffle is O(splits·k) records rather than O(n).
func TestIterateShuffleBoundedByCenters(t *testing.T) {
	env, ds := testEnv(t, dataset.Spec{K: 3, Dim: 2, N: 600, MinSeparation: 20, Seed: 3}, 2<<10)
	res, err := Iterate(env, ds.Centers)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := env.FS.Splits(env.Input)
	if err != nil {
		t.Fatal(err)
	}
	maxRecords := int64(len(splits) * len(ds.Centers))
	if got := res.Job.Counters.Get(mr.CounterShuffleRecords); got > maxRecords {
		t.Errorf("shuffle records = %d, want ≤ %d (in-mapper combining bound)", got, maxRecords)
	}
	if maxRecords >= int64(len(ds.Points)) {
		t.Fatalf("bound %d does not separate combining from one record per point (n=%d)", maxRecords, len(ds.Points))
	}
}

func TestIterateDistanceAccounting(t *testing.T) {
	env, _ := testEnv(t, dataset.Spec{K: 2, Dim: 2, N: 500, Seed: 4}, 0)
	centers := []vec.Vector{{0, 0}, {50, 50}, {100, 100}}
	res, err := Iterate(env, centers)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly n×k distances: the paper's O(kn) per-iteration model.
	if got := res.Job.Counters.Get(CounterDistances); got != 500*3 {
		t.Errorf("distances = %d, want 1500", got)
	}
	if got := res.Job.Counters.Get(CounterPoints); got != 500 {
		t.Errorf("points = %d, want 500", got)
	}
}

func TestIterateEmptyClusterKeepsCenter(t *testing.T) {
	env, _ := testEnv(t, dataset.Spec{K: 1, Dim: 2, N: 100, CenterRange: 1, Seed: 5}, 0)
	far := vec.Vector{1e6, 1e6}
	res, err := Iterate(env, []vec.Vector{{0, 0}, far})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(res.Centers[1], far) {
		t.Errorf("empty cluster center moved: %v", res.Centers[1])
	}
	if res.Sizes[1] != 0 {
		t.Errorf("empty cluster size = %d", res.Sizes[1])
	}
}

func TestIterateNoCenters(t *testing.T) {
	env, _ := testEnv(t, dataset.Spec{K: 1, Dim: 2, N: 10, Seed: 6}, 0)
	if _, err := Iterate(env, nil); err == nil {
		t.Error("no centers accepted")
	}
}

func TestSamplePoints(t *testing.T) {
	env, ds := testEnv(t, dataset.Spec{K: 2, Dim: 2, N: 300, Seed: 7}, 1<<10)
	sample, err := SamplePoints(env, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 10 {
		t.Fatalf("sample = %d", len(sample))
	}
	// Every sampled point must be an actual dataset point.
	for _, s := range sample {
		found := false
		for _, p := range ds.Points {
			if vec.Equal(s, p) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("sampled point %v not in dataset", s)
		}
	}
	// Determinism.
	again, err := SamplePoints(env, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sample {
		if !vec.Equal(sample[i], again[i]) {
			t.Error("same-seed sampling differs")
		}
	}
	// Too many samples.
	if _, err := SamplePoints(env, 1000, 1); err == nil {
		t.Error("oversampling accepted")
	}
}

func TestRunMultiConvergesPerK(t *testing.T) {
	env, ds := testEnv(t, dataset.Spec{K: 3, Dim: 2, N: 900, MinSeparation: 25, Seed: 8}, 4<<10)
	res, err := RunMulti(MultiConfig{Env: env, KMin: 1, KMax: 5, Iterations: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CentersByK) != 5 {
		t.Fatalf("center sets = %d", len(res.CentersByK))
	}
	for k, centers := range res.CentersByK {
		if len(centers) != k {
			t.Errorf("k=%d has %d centers", k, len(centers))
		}
	}
	if len(res.IterationTimes) != 10 {
		t.Errorf("iteration times = %d", len(res.IterationTimes))
	}
	// With k=3 and well-separated data, the k=3 center set must sit near
	// the true centers.
	for _, truth := range ds.Centers {
		_, d2 := vec.NearestIndex(truth, res.CentersByK[3])
		if math.Sqrt(d2) > 5 {
			t.Errorf("k=3 center set misses truth %v by %.2f", truth, math.Sqrt(d2))
		}
	}
}

func TestRunMultiKStep(t *testing.T) {
	env, _ := testEnv(t, dataset.Spec{K: 2, Dim: 2, N: 200, Seed: 9}, 0)
	res, err := RunMulti(MultiConfig{Env: env, KMin: 2, KMax: 8, KStep: 3, Iterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CentersByK) != 3 { // k = 2, 5, 8
		t.Fatalf("center sets = %v", len(res.CentersByK))
	}
	for _, k := range []int{2, 5, 8} {
		if _, ok := res.CentersByK[k]; !ok {
			t.Errorf("missing k=%d", k)
		}
	}
}

func TestRunMultiValidation(t *testing.T) {
	env, _ := testEnv(t, dataset.Spec{K: 2, Dim: 2, N: 50, Seed: 10}, 0)
	if _, err := RunMulti(MultiConfig{Env: env, KMin: 5, KMax: 2}); err == nil {
		t.Error("KMax < KMin accepted")
	}
}

func TestEvaluateMatchesSequentialWCSS(t *testing.T) {
	env, ds := testEnv(t, dataset.Spec{K: 3, Dim: 2, N: 600, MinSeparation: 25, Seed: 11}, 2<<10)
	cfg := MultiConfig{Env: env, KMin: 1, KMax: 4, Iterations: 6, Seed: 2}
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Evaluate(cfg, res); err != nil {
		t.Fatal(err)
	}
	for k, centers := range res.CentersByK {
		assign := lloyd.Assign(ds.Points, centers)
		want := lloyd.WCSS(ds.Points, centers, assign)
		if got := res.WCSSByK[k]; math.Abs(got-want) > 1e-6*(1+want) {
			t.Errorf("k=%d: MR WCSS %v vs sequential %v", k, got, want)
		}
		wantAvg := lloyd.AverageDistance(ds.Points, centers, assign)
		if got := res.AvgDistByK[k]; math.Abs(got-wantAvg) > 1e-9*(1+wantAvg) {
			t.Errorf("k=%d: MR avg dist %v vs sequential %v", k, got, wantAvg)
		}
	}
	// WCSS must be non-increasing in k after convergence on this easy data.
	for k := 2; k <= 4; k++ {
		if res.WCSSByK[k] > res.WCSSByK[k-1]*1.05 {
			t.Errorf("WCSS rose from k=%d (%v) to k=%d (%v)", k-1, res.WCSSByK[k-1], k, res.WCSSByK[k])
		}
	}
}

// TestMultiKDistancesQuadratic checks the paper's O(n·k²) claim: the
// distance count of one multi-k-means pass over k=1..K equals n·K(K+1)/2.
func TestMultiKDistancesQuadratic(t *testing.T) {
	env, _ := testEnv(t, dataset.Spec{K: 2, Dim: 2, N: 400, Seed: 12}, 0)
	res, err := RunMulti(MultiConfig{Env: env, KMin: 1, KMax: 6, Iterations: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(400 * (6 * 7 / 2))
	if got := res.Counters.Get(CounterDistances); got != want {
		t.Errorf("distances = %d, want %d = n·k(k+1)/2", got, want)
	}
}

func TestAvgIterationTime(t *testing.T) {
	r := &MultiResult{}
	if r.AvgIterationTime() != 0 {
		t.Error("empty AvgIterationTime should be 0")
	}
	r.IterationTimes = []time.Duration{2 * time.Second, 4 * time.Second}
	if got := r.AvgIterationTime(); got != 3*time.Second {
		t.Errorf("AvgIterationTime = %v", got)
	}
}
