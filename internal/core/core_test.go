package core

import (
	"math"
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/obs"
	"gmeansmr/internal/stats"
	"gmeansmr/internal/vec"
)

// newEnv materializes a mixture dataset into a fresh DFS.
func newEnv(t *testing.T, spec dataset.Spec, splitSize int, cluster mr.Cluster) (kmeansmr.Env, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(splitSize)
	ds.WriteToDFS(fs, "/data/points.txt")
	return kmeansmr.Env{FS: fs, Cluster: cluster, Input: "/data/points.txt", Dim: spec.Dim}, ds
}

func smallCluster() mr.Cluster {
	return mr.Cluster{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2,
		TaskHeapBytes: 64 << 20, MaxHeapUsage: 0.66}
}

func TestRunDiscoversApproximateK(t *testing.T) {
	env, ds := newEnv(t, dataset.Spec{K: 10, Dim: 2, N: 20000, MinSeparation: 15, Seed: 42}, 256<<10, smallCluster())
	res, err := Run(Config{Env: env, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's MR G-means systematically over-estimates by ≈1.5×; accept
	// [k, 2k] and require every true cluster to be covered.
	if res.K < 10 || res.K > 20 {
		t.Fatalf("discovered k=%d, want within [10,20] for true k=10", res.K)
	}
	for _, truth := range ds.Centers {
		_, d2 := vec.NearestIndex(truth, res.Centers)
		if math.Sqrt(d2) > 4 {
			t.Errorf("no center near true center %v (%.2f away)", truth, math.Sqrt(d2))
		}
	}
	if res.Iterations < 4 { // ≥ 1 + log2(10)
		t.Errorf("iterations = %d, expected at least ceil(log2 10)+1", res.Iterations)
	}
	if res.KBeforeMerge != res.K {
		t.Errorf("merge disabled but KBeforeMerge %d != K %d", res.KBeforeMerge, res.K)
	}
}

func TestRunSingleGaussianStopsAtOne(t *testing.T) {
	env, _ := newEnv(t, dataset.Spec{K: 1, Dim: 3, N: 5000, Seed: 3}, 128<<10, smallCluster())
	res, err := Run(Config{Env: env, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Errorf("single Gaussian split into k=%d", res.K)
	}
	// Frozen on the first accept.
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1", res.Iterations)
	}
}

// Regression: datasets smaller than the two-point seeding sample
// previously failed with "dataset has only 1 points, need 2 samples". The
// seeding now pads the sample by pairing points with themselves, so the run
// degrades to the trivial clustering instead of erroring.
func TestRunTinyDatasets(t *testing.T) {
	stage := func(lines string, dim int) kmeansmr.Env {
		fs := dfs.New(1 << 10)
		w := fs.Writer("/tiny.txt")
		w.WriteString(lines)
		w.Close()
		return kmeansmr.Env{FS: fs, Cluster: smallCluster(), Input: "/tiny.txt", Dim: dim}
	}

	t.Run("single-point", func(t *testing.T) {
		res, err := Run(Config{Env: stage("1.5 -2.25\n", 2), Seed: 7, MaxK: 12})
		if err != nil {
			t.Fatal(err)
		}
		if res.K != 1 {
			t.Fatalf("single point clustered into k=%d", res.K)
		}
		if got := res.Centers[0]; got[0] != 1.5 || got[1] != -2.25 {
			t.Errorf("center = %v, want the lone point", got)
		}
	})

	t.Run("two-points", func(t *testing.T) {
		res, err := Run(Config{Env: stage("0 0\n10 10\n", 2), Seed: 7, MaxK: 12})
		if err != nil {
			t.Fatal(err)
		}
		if res.K < 1 || res.K > 2 {
			t.Fatalf("two points clustered into k=%d", res.K)
		}
	})

	t.Run("three-points", func(t *testing.T) {
		res, err := Run(Config{Env: stage("0 0\n10 0\n0 10\n", 2), Seed: 7, MaxK: 12})
		if err != nil {
			t.Fatal(err)
		}
		if res.K < 1 || res.K > 3 {
			t.Fatalf("three points clustered into k=%d", res.K)
		}
		for _, c := range res.Centers {
			for _, x := range c {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("non-finite center %v", c)
				}
			}
		}
	})
}

func TestRunDeterministicWithSeed(t *testing.T) {
	env, _ := newEnv(t, dataset.Spec{K: 4, Dim: 2, N: 4000, MinSeparation: 20, Seed: 5}, 64<<10, smallCluster())
	a, err := Run(Config{Env: env, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Env: env, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.K != b.K || a.Iterations != b.Iterations {
		t.Fatalf("same-seed runs differ: k=%d/%d iters=%d/%d", a.K, b.K, a.Iterations, b.Iterations)
	}
	for i := range a.Centers {
		if !vec.ApproxEqual(a.Centers[i], b.Centers[i], 1e-12) {
			t.Fatalf("center %d differs across same-seed runs", i)
		}
	}
}

// TestRunFindsEveryTrueCluster gates the split rule on quality: on
// well-separated mixtures every true cluster gets its own center, k does
// not overshoot, and the clustering's mean distance is that of the true
// centers. A rule whose children can both fall in one true sub-cluster
// projects the merged cluster across its separation, accepts it and
// freezes it merged.
func TestRunFindsEveryTrueCluster(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		env, ds := newEnv(t, dataset.Spec{K: 32, Dim: 16, N: 16000, StdDev: 1,
			MinSeparation: 8, Seed: seed}, 256<<10, smallCluster())
		res, err := Run(Config{Env: env, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		missed := 0
		for _, truth := range ds.Centers {
			if _, d2 := vec.NearestIndex(truth, res.Centers); d2 > 4 {
				missed++
			}
		}
		var got, truth float64
		for i, p := range ds.Points {
			_, d2 := vec.NearestIndex(p, res.Centers)
			got += math.Sqrt(d2)
			truth += vec.Dist(p, ds.Centers[ds.Labels[i]])
		}
		ratio := got / truth
		if missed > 0 || res.K > 40 || ratio > 1.25 {
			t.Errorf("seed %d: k=%d, %d true clusters without a center within 2, mean distance %.3f× the true centers'",
				seed, res.K, missed, ratio)
		}
	}
}

// TestRunIndependentOfSplitSize: the verdict of the normality test must
// not depend on how the input is cut into splits. With a mapper-side test
// on split-local samples, 32 well-separated clusters collapsed to k = 1
// once splits held fewer than ~100 points. Under -short only seed 1 runs.
func TestRunIndependentOfSplitSize(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		ds, err := dataset.Generate(dataset.Spec{K: 32, Dim: 16, N: 16000, StdDev: 1,
			MinSeparation: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var truth float64
		for i, p := range ds.Points {
			truth += vec.Dist(p, ds.Centers[ds.Labels[i]])
		}
		for _, split := range []int{0, 32 << 10, 16 << 10, 6 << 10} {
			fs := dfs.New(split)
			ds.WriteToDFS(fs, "/data/points.txt")
			env := kmeansmr.Env{FS: fs, Cluster: mr.DefaultCluster().WithNodes(2),
				Input: "/data/points.txt", Dim: 16}
			res, err := Run(Config{Env: env, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var got float64
			for _, p := range ds.Points {
				_, d2 := vec.NearestIndex(p, res.Centers)
				got += math.Sqrt(d2)
			}
			if ratio := got / truth; res.K != 32 || ratio > 1.25 {
				t.Errorf("seed %d, split size %d: k=%d, mean distance %.3f× the true centers'",
					seed, split, res.K, ratio)
			}
		}
	}
}

func TestRunCentersAreNearCentroids(t *testing.T) {
	// Invariant: every final center should be close to the centroid of the
	// points assigned to it (it was produced by a k-means pass).
	env, ds := newEnv(t, dataset.Spec{K: 5, Dim: 2, N: 8000, MinSeparation: 20, Seed: 6}, 128<<10, smallCluster())
	res, err := Run(Config{Env: env, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	assign := lloyd.Assign(ds.Points, res.Centers)
	groups := make(map[int][]vec.Vector)
	for i, a := range assign {
		groups[a] = append(groups[a], ds.Points[i])
	}
	total := 0
	for c, members := range groups {
		total += len(members)
		centroid := vec.Mean(members)
		// The final centers come from the parent iteration, so allow a few
		// sigma of slack rather than exact equality.
		if vec.Dist(centroid, res.Centers[c]) > 3 {
			t.Errorf("center %d is %.2f from its assignment centroid", c, vec.Dist(centroid, res.Centers[c]))
		}
	}
	if total != len(ds.Points) {
		t.Errorf("assignment covers %d of %d points", total, len(ds.Points))
	}
}

func TestRunMaxKCap(t *testing.T) {
	env, _ := newEnv(t, dataset.Spec{K: 16, Dim: 2, N: 8000, MinSeparation: 12, Seed: 8}, 128<<10, smallCluster())
	res, err := Run(Config{Env: env, Seed: 3, MaxK: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 6 {
		t.Errorf("MaxK=6 but discovered %d", res.K)
	}
}

func TestRunMaxIterationsCap(t *testing.T) {
	env, _ := newEnv(t, dataset.Spec{K: 8, Dim: 2, N: 6000, MinSeparation: 15, Seed: 9}, 128<<10, smallCluster())
	res, err := Run(Config{Env: env, Seed: 4, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Errorf("iterations = %d beyond cap", res.Iterations)
	}
	if res.K < 1 {
		t.Error("no centers despite cap")
	}
}

func TestRunMergePostProcessing(t *testing.T) {
	env, _ := newEnv(t, dataset.Spec{K: 10, Dim: 2, N: 20000, MinSeparation: 15, Seed: 42}, 256<<10, smallCluster())
	plain, err := Run(Config{Env: env, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Run(Config{Env: env, Seed: 7, MergeRadius: 3})
	if err != nil {
		t.Fatal(err)
	}
	if merged.KBeforeMerge != plain.K {
		t.Errorf("KBeforeMerge = %d, want %d", merged.KBeforeMerge, plain.K)
	}
	if merged.K > plain.K {
		t.Errorf("merging increased k: %d > %d", merged.K, plain.K)
	}
}

func TestRunValidation(t *testing.T) {
	env, _ := newEnv(t, dataset.Spec{K: 2, Dim: 2, N: 100, Seed: 12}, 0, smallCluster())
	bad := Config{Env: env, Alpha: 2}
	if _, err := Run(bad); err == nil {
		t.Error("alpha=2 accepted")
	}
	bad = Config{Env: env}
	bad.Dim = 0
	if _, err := Run(bad); err == nil {
		t.Error("dim=0 accepted")
	}
}

func TestRunCountersPopulated(t *testing.T) {
	env, _ := newEnv(t, dataset.Spec{K: 4, Dim: 2, N: 4000, MinSeparation: 20, Seed: 13}, 128<<10, smallCluster())
	env.FS.ResetCounters()
	res, err := Run(Config{Env: env, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(kmeansmr.CounterDistances) == 0 {
		t.Error("no distance computations recorded")
	}
	if res.Counters.Get(CounterADTests) == 0 {
		t.Error("no AD tests recorded")
	}
	if res.Counters.Get(CounterProjections) == 0 {
		t.Error("no projections recorded")
	}
	// 1 sampling read + 4 jobs per round: the paper's three plus the
	// candidate job.
	wantReads := int64(1 + 4*res.Iterations)
	if got := env.FS.DatasetReads(); got != wantReads {
		t.Errorf("dataset reads = %d, want %d (1 + 4×%d iterations)", got, wantReads, res.Iterations)
	}
}

func TestRunPerIterationSnapshots(t *testing.T) {
	env, _ := newEnv(t, dataset.Spec{K: 4, Dim: 2, N: 4000, MinSeparation: 20, Seed: 14}, 128<<10, smallCluster())
	res, err := Run(Config{Env: env, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerIteration) != res.Iterations {
		t.Fatalf("per-iteration records = %d, want %d", len(res.PerIteration), res.Iterations)
	}
	for i, it := range res.PerIteration {
		if it.Iteration != i+1 {
			t.Errorf("iteration %d numbered %d", i, it.Iteration)
		}
		if len(it.Centers) == 0 {
			t.Errorf("iteration %d has empty center snapshot", i)
		}
		if it.Duration <= 0 {
			t.Errorf("iteration %d has non-positive duration", i)
		}
	}
	last := res.PerIteration[len(res.PerIteration)-1]
	if last.FoundAfter != res.KBeforeMerge {
		t.Errorf("last FoundAfter = %d, want %d", last.FoundAfter, res.KBeforeMerge)
	}
}

// TestRunTestSpanExplainsVerdicts: every test phase's span carries one
// record per cluster under test — its size, the sample the reducer
// tested, A*², the critical value and the verdict — and the verdicts
// agree with the round's split count. The first round samples a cluster
// larger than the test's sample size.
func TestRunTestSpanExplainsVerdicts(t *testing.T) {
	env, _ := newEnv(t, dataset.Spec{K: 4, Dim: 2, N: 4 * testSampleSize, MinSeparation: 20, Seed: 14}, 64<<10, smallCluster())
	env.Trace = obs.NewTrace()
	res, err := Run(Config{Env: env, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var spans [][]testVerdict
	for _, ev := range env.Trace.Events() {
		if ev.Name == "test" && ev.Cat == "round-phase" {
			spans = append(spans, ev.Args["clusters"].([]testVerdict))
		}
	}
	if len(spans) != len(res.PerIteration) {
		t.Fatalf("%d test spans for %d rounds", len(spans), len(res.PerIteration))
	}
	critical := stats.CriticalValue(0.0001)
	for r, it := range res.PerIteration {
		if len(spans[r]) != it.ActiveBefore {
			t.Fatalf("round %d: %d verdict records for %d clusters under test", r+1, len(spans[r]), it.ActiveBefore)
		}
		splits := 0
		for _, v := range spans[r] {
			if v.Critical != critical || v.Normal != (v.A2Star <= critical) || v.Sample > v.N+v.N/8 {
				t.Errorf("round %d: inconsistent verdict %+v (critical %v)", r+1, v, critical)
			}
			if !v.Normal {
				splits++
			}
		}
		if splits != it.SplitCount {
			t.Errorf("round %d: %d rejecting records, %d splits", r+1, splits, it.SplitCount)
		}
	}
	if first := spans[0][0]; first.N <= testSampleSize || first.Sample >= first.N/2 {
		t.Errorf("round 1 tested %d of %d projections, want a sample of about %d", first.Sample, first.N, testSampleSize)
	}
}

func TestRunDistancesLinearInK(t *testing.T) {
	// The headline claim: G-means costs O(nk) distances. Quadrupling true
	// k on the same n should multiply distances by ≈4 (plus the extra
	// log₂ iterations), nowhere near the ≈16× a quadratic algorithm pays.
	counts := map[int]int64{}
	for _, k := range []int{8, 32} {
		env, _ := newEnv(t, dataset.Spec{K: k, Dim: 2, N: 16000, MinSeparation: 12, Seed: 21}, 256<<10, smallCluster())
		res, err := Run(Config{Env: env, Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		counts[k] = res.Counters.Get(kmeansmr.CounterDistances)
	}
	ratio := float64(counts[32]) / float64(counts[8])
	if ratio > 9 {
		t.Errorf("distance growth ratio %.2f for 4× k suggests super-linear cost (8 → %d, 32 → %d)",
			ratio, counts[8], counts[32])
	}
}

func TestMergeCloseCenters(t *testing.T) {
	centers := []vec.Vector{{0, 0}, {0.5, 0}, {10, 10}, {10, 10.4}, {50, 50}}
	got := MergeCloseCenters(centers, 1)
	if len(got) != 3 {
		t.Fatalf("merged to %d centers, want 3: %v", len(got), got)
	}
	// Chained merging (single linkage): a—b—c with gaps < radius collapse
	// into one.
	chain := []vec.Vector{{0}, {0.9}, {1.8}}
	if got := MergeCloseCenters(chain, 1); len(got) != 1 {
		t.Errorf("chain merged to %d, want 1", len(got))
	}
	// No-ops.
	if got := MergeCloseCenters(centers, 0); len(got) != 5 {
		t.Error("radius 0 should disable merging")
	}
	if got := MergeCloseCenters(centers[:1], 10); len(got) != 1 {
		t.Error("single center should pass through")
	}
}

func TestMergeCloseCentersMean(t *testing.T) {
	got := MergeCloseCenters([]vec.Vector{{0, 0}, {2, 0}}, 3)
	if len(got) != 1 || !vec.ApproxEqual(got[0], vec.Vector{1, 0}, 1e-12) {
		t.Errorf("merge mean = %v", got)
	}
}

func TestSuggestMergeRadius(t *testing.T) {
	if got := SuggestMergeRadius(nil); got != 0 {
		t.Errorf("radius of no centers = %v", got)
	}
	if got := SuggestMergeRadius([]vec.Vector{{0}}); got != 0 {
		t.Errorf("radius of one center = %v", got)
	}
	if got := SuggestMergeRadius([]vec.Vector{{0}, {1}}); got != 0 {
		t.Errorf("two centers are ambiguous, radius = %v, want 0", got)
	}
	// Two doubled pairs 100 apart: the radius must land between the pair
	// scale (1) and the cluster scale (100), so merging collapses each
	// pair but not the pairs into each other.
	centers := []vec.Vector{{0}, {1}, {100}, {101}}
	got := SuggestMergeRadius(centers)
	if got <= 1 || got >= 99 {
		t.Fatalf("radius = %v, want within (1, 99)", got)
	}
	if merged := MergeCloseCenters(centers, got); len(merged) != 2 {
		t.Errorf("merged to %d centers, want 2", len(merged))
	}
	// A clean, well-separated center set suggests no merging at all.
	clean := []vec.Vector{{0, 0}, {50, 0}, {0, 50}, {50, 50}}
	if got := SuggestMergeRadius(clean); got != 0 {
		t.Errorf("clean set radius = %v, want 0", got)
	}
	// Mixed: one doubled pair among singles still gets merged.
	mixed := []vec.Vector{{0, 0}, {2, 0}, {50, 0}, {0, 50}, {50, 50}}
	r := SuggestMergeRadius(mixed)
	if r <= 2 || r >= 48 {
		t.Fatalf("mixed radius = %v, want within (2, 48)", r)
	}
	if merged := MergeCloseCenters(mixed, r); len(merged) != 4 {
		t.Errorf("mixed merged to %d centers, want 4", len(merged))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Alpha != 0.0001 || c.MaxIterations != 30 {
		t.Errorf("defaults = %+v", c)
	}
}

// TestRunPCACandidates: principal-component candidates (the paper's
// "additional MapReduce job") recover k, paying one extra dataset read per
// round.
func TestRunPCACandidates(t *testing.T) {
	spec := dataset.Spec{K: 8, Dim: 3, N: 8000, MinSeparation: 20, Seed: 71}
	env, ds := newEnv(t, spec, 128<<10, smallCluster())
	env.FS.ResetCounters()
	res, err := Run(Config{Env: env, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 8 || res.K > 14 {
		t.Fatalf("PCA candidates found k=%d for true k=8", res.K)
	}
	for _, truth := range ds.Centers {
		_, d2 := vec.NearestIndex(truth, res.Centers)
		if math.Sqrt(d2) > 4 {
			t.Errorf("no center near truth %v", truth)
		}
	}
	// 1 sampling read + 4 jobs per round (kmeans, last kmeans, pca, test).
	wantReads := int64(1 + 4*res.Iterations)
	if got := env.FS.DatasetReads(); got != wantReads {
		t.Errorf("dataset reads = %d, want %d (PCA pays one extra per round)", got, wantReads)
	}
}
