package core

import (
	"errors"
	"math"
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/mr"
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
	// One accept per confirmation round (default 2).
	if res.Iterations != 2 {
		t.Errorf("iterations = %d, want 2 (ConfirmRounds)", res.Iterations)
	}
}

// Regression: datasets smaller than the 2·InitialClusters seeding sample
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

func TestRunForcedStrategies(t *testing.T) {
	for _, strat := range []TestStrategy{StrategyFewClusters, StrategyReducer} {
		env, _ := newEnv(t, dataset.Spec{K: 4, Dim: 2, N: 6000, MinSeparation: 20, Seed: 10}, 128<<10, smallCluster())
		res, err := Run(Config{Env: env, Seed: 5, ForceStrategy: strat})
		if err != nil {
			t.Fatalf("strategy %s: %v", strat, err)
		}
		if res.K < 4 || res.K > 8 {
			t.Errorf("strategy %s found k=%d, want [4,8]", strat, res.K)
		}
		for _, it := range res.PerIteration {
			if it.Strategy != strat && it.Strategy != "capped" {
				t.Errorf("iteration used %s, forced %s", it.Strategy, strat)
			}
		}
	}
}

func TestStrategySwitchRule(t *testing.T) {
	cfg := Config{}.withDefaults()
	cfg.Cluster = smallCluster() // reduce capacity = 8, plannable heap = 0.66×64MB
	const bigCluster = 100_000   // per-split samples stay decidable with 10 splits
	// Few clusters: stays mapper-side.
	if got := chooseStrategy(cfg, 2, 1000, bigCluster, 10); got != StrategyFewClusters {
		t.Errorf("2 clusters: %s", got)
	}
	// Many clusters, heap fits: switches to reducer-side.
	if got := chooseStrategy(cfg, 10, 1000, bigCluster, 10); got != StrategyReducer {
		t.Errorf("10 clusters, small heap: %s", got)
	}
	// Many clusters but biggest cluster would blow the plannable heap:
	// stays mapper-side.
	if got := chooseStrategy(cfg, 10, cfg.Cluster.PlannableHeap()+1, bigCluster, 10); got != StrategyFewClusters {
		t.Errorf("10 clusters, huge heap: %s", got)
	}
	// Small-data correctness guard: the smallest cluster cannot give every
	// mapper a decidable sample, so the reducer-side test takes over even
	// below the capacity threshold.
	if got := chooseStrategy(cfg, 2, 1000, 100, 10); got != StrategyReducer {
		t.Errorf("undersampled clusters: %s", got)
	}
	// ... unless the heap cannot take it.
	if got := chooseStrategy(cfg, 2, cfg.Cluster.PlannableHeap()+1, 100, 10); got != StrategyFewClusters {
		t.Errorf("undersampled clusters, huge heap: %s", got)
	}
	// Forced pin wins.
	cfg.ForceStrategy = StrategyReducer
	if got := chooseStrategy(cfg, 1, 1, bigCluster, 10); got != StrategyReducer {
		t.Errorf("forced: %s", got)
	}
}

// TestReducerStrategyHeapFailure reproduces the paper's Figure 2 failure
// mode: a reducer-side test on a single huge cluster with a tiny task heap
// dies with the engine's Java-heap-space error.
func TestReducerStrategyHeapFailure(t *testing.T) {
	cl := smallCluster()
	cl.TaskHeapBytes = 32 << 10 // 32 KB ⇒ capacity for ~512 points at 64 B/pt
	env, _ := newEnv(t, dataset.Spec{K: 2, Dim: 2, N: 4000, MinSeparation: 40, Seed: 11}, 64<<10, cl)
	_, err := Run(Config{Env: env, Seed: 6, ForceStrategy: StrategyReducer})
	if !errors.Is(err, mr.ErrHeapSpace) {
		t.Fatalf("err = %v, want ErrHeapSpace", err)
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
	// The paper: 3 jobs per iteration + 1 sampling read.
	wantReads := int64(1 + 3*res.Iterations)
	if got := env.FS.DatasetReads(); got != wantReads {
		t.Errorf("dataset reads = %d, want %d (1 + 3×%d iterations)", got, wantReads, res.Iterations)
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

func TestVotePolicies(t *testing.T) {
	for _, v := range []VotePolicy{VoteMajority, VoteAll, VoteAny} {
		env, _ := newEnv(t, dataset.Spec{K: 3, Dim: 2, N: 3000, MinSeparation: 25, Seed: 15}, 64<<10, smallCluster())
		res, err := Run(Config{Env: env, Seed: 11, Vote: v, ForceStrategy: StrategyFewClusters})
		if err != nil {
			t.Fatalf("vote %s: %v", v, err)
		}
		if res.K < 3 {
			t.Errorf("vote %s under-split: k=%d", v, res.K)
		}
	}
	if VoteAll.String() != "all" || VoteAny.String() != "any" || VoteMajority.String() != "majority" {
		t.Error("VotePolicy.String wrong")
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
	if c.InitialClusters != 1 || c.Alpha != 0.0001 || c.KMeansIterations != 2 ||
		c.MaxIterations != 30 || c.MinTestSamples != DefaultMinTestSamples ||
		c.MinClusterSize != 2*DefaultMinTestSamples {
		t.Errorf("defaults = %+v", c)
	}
}

func TestOffsetValue(t *testing.T) {
	if Offset != int64(1)<<62 {
		t.Errorf("Offset = %d, want 2^62 as in the paper", Offset)
	}
}

// TestConfirmRoundsAblation: single-accept freezing (the paper's literal
// Algorithm 1) must never *beat* the confirmed variant on cluster coverage.
func TestConfirmRoundsAblation(t *testing.T) {
	spec := dataset.Spec{K: 32, Dim: 10, N: 16000, MinSeparation: 8, Seed: 53}
	covered := map[int]int{}
	for _, confirm := range []int{1, 2} {
		env, ds := newEnv(t, spec, 256<<10, smallCluster())
		res, err := Run(Config{Env: env, Seed: 54, ConfirmRounds: confirm})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, truth := range ds.Centers {
			if _, d2 := vec.NearestIndex(truth, res.Centers); d2 <= 9 {
				n++
			}
		}
		covered[confirm] = n
	}
	if covered[1] > covered[2] {
		t.Errorf("confirmation hurt coverage: confirm=1 %d vs confirm=2 %d", covered[1], covered[2])
	}
}

// TestRunPCACandidates: the PCA candidate policy (the paper's "additional
// MapReduce job" variant) must also recover k, and must pay one extra
// dataset read per round.
func TestRunPCACandidates(t *testing.T) {
	spec := dataset.Spec{K: 8, Dim: 3, N: 8000, MinSeparation: 20, Seed: 71}
	env, ds := newEnv(t, spec, 128<<10, smallCluster())
	env.FS.ResetCounters()
	res, err := Run(Config{Env: env, Seed: 72, Candidates: CandidatesPCA})
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

func TestCandidatePolicyString(t *testing.T) {
	if CandidatesRandom.String() != "random" || CandidatesPCA.String() != "pca" {
		t.Error("CandidatePolicy.String wrong")
	}
}
