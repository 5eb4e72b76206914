package gmeansmr

// One benchmark per table and figure of the paper's evaluation (§5), plus
// ablation benchmarks for the design decisions DESIGN.md calls out. The
// paper-shape metrics (discovered k, iterations, distance computations,
// shuffle bytes, projections per test) are emitted via b.ReportMetric so
// `go test -bench` output doubles as a miniature reproduction report;
// EXPERIMENTS.md records the full-scale numbers.

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gmeansmr/internal/core"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/model"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/obs"
	"gmeansmr/internal/pointtext"
	"gmeansmr/internal/seqgmeans"
	"gmeansmr/internal/serve"
	"gmeansmr/internal/stats"
	"gmeansmr/internal/vec"
	"gmeansmr/internal/xmeans"
)

// benchEnv materializes a mixture into a fresh DFS sized for ~32 splits.
func benchEnv(b *testing.B, spec dataset.Spec, cluster mr.Cluster) (kmeansmr.Env, *dataset.Dataset) {
	b.Helper()
	ds, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	split := spec.N * spec.Dim * 18 / 32
	if split < 4<<10 {
		split = 4 << 10
	}
	fs := dfs.New(split)
	ds.WriteToDFS(fs, "/data/points.txt")
	return kmeansmr.Env{FS: fs, Cluster: cluster, Input: "/data/points.txt", Dim: spec.Dim}, ds
}

func benchCluster() mr.Cluster {
	return mr.DefaultCluster()
}

// --- Figure 1: center evolution on 10 clusters in R² ------------------------

func BenchmarkFig1CenterEvolution(b *testing.B) {
	spec := dataset.Spec{K: 10, Dim: 2, N: 10_000, CenterRange: 100, StdDev: 2,
		MinSeparation: 18, Seed: 1}
	for i := 0; i < b.N; i++ {
		env, _ := benchEnv(b, spec, benchCluster())
		res, err := core.Run(core.Config{Env: env, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.K), "k_found")
		b.ReportMetric(float64(res.Iterations), "iterations")
	}
}

// --- Figure 2: projections reaching the TestClusters reducer ---------------

// BenchmarkFig2SampleBound runs one G-means round on a single cluster eight
// times the test's sample size and reports the projections its one
// reducer receives: about the sample size, not n.
func BenchmarkFig2SampleBound(b *testing.B) {
	const n = 32_768
	spec := dataset.Spec{K: 1, Dim: 2, N: n, StdDev: 3, Seed: 3}
	for i := 0; i < b.N; i++ {
		env, _ := benchEnv(b, spec, benchCluster())
		res, err := core.Run(core.Config{Env: env, Seed: 1, MaxIterations: 1})
		if err != nil {
			b.Fatal(err)
		}
		c := res.Counters.Snapshot()
		b.ReportMetric(float64(c[core.CounterProjections])/float64(c[core.CounterADTests]), "projections/test")
	}
}

// --- Table 1: G-means across the d-series ----------------------------------

func BenchmarkTable1GMeans(b *testing.B) {
	for _, k := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			spec := dataset.Spec{K: k, Dim: 10, N: 20_000, CenterRange: 100,
				StdDev: 1, MinSeparation: 8, Seed: int64(k)}
			for i := 0; i < b.N; i++ {
				env, _ := benchEnv(b, spec, benchCluster())
				res, err := core.Run(core.Config{Env: env, Seed: int64(100 + k)})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.K), "k_found")
				b.ReportMetric(float64(res.Iterations), "iterations")
				b.ReportMetric(float64(res.Counters.Get(kmeansmr.CounterDistances)), "distances")
			}
		})
	}
}

// --- Table 2: multi-k-means per-iteration cost ------------------------------

func BenchmarkTable2MultiKMeans(b *testing.B) {
	for _, k := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("kmax=%d", k), func(b *testing.B) {
			spec := dataset.Spec{K: k, Dim: 10, N: 20_000, CenterRange: 100,
				StdDev: 1, MinSeparation: 8, Seed: int64(k)}
			env, _ := benchEnv(b, spec, benchCluster())
			for i := 0; i < b.N; i++ {
				res, err := kmeansmr.RunMulti(kmeansmr.MultiConfig{
					Env: env, KMin: 1, KMax: k, Iterations: 1, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Counters.Get(kmeansmr.CounterDistances)), "distances/iter")
			}
		})
	}
}

// --- Figure 3: the crossover ------------------------------------------------

func BenchmarkFig3Crossover(b *testing.B) {
	// The paper's separation is in growth order: a complete G-means run
	// costs O(nk) distances while one multi-k-means iteration costs
	// O(nk²), so quadrupling k must grow the multi-k-means cost much
	// faster — that is what pushes the curves across each other at
	// moderate k (≈100 in the paper, between 64 and 128 at this
	// reproduction's scale; see EXPERIMENTS.md Figure 3).
	run := func(k int) (gd, md int64) {
		spec := dataset.Spec{K: k, Dim: 10, N: 20_000, CenterRange: 100,
			StdDev: 1, MinSeparation: 8, Seed: 9}
		env, _ := benchEnv(b, spec, benchCluster())
		g, err := core.Run(core.Config{Env: env, Seed: 10})
		if err != nil {
			b.Fatal(err)
		}
		m, err := kmeansmr.RunMulti(kmeansmr.MultiConfig{
			Env: env, KMin: 1, KMax: k, Iterations: 1, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		return g.Counters.Get(kmeansmr.CounterDistances),
			m.Counters.Get(kmeansmr.CounterDistances)
	}
	for i := 0; i < b.N; i++ {
		gLo, mLo := run(16)
		gHi, mHi := run(64)
		gGrowth := float64(gHi) / float64(gLo)
		mGrowth := float64(mHi) / float64(mLo)
		if mGrowth < 2*gGrowth {
			b.Fatalf("multi-k-means distance growth (%.1fx) should far exceed G-means growth (%.1fx) for 4x k",
				mGrowth, gGrowth)
		}
		b.ReportMetric(gGrowth, "gmeans_growth_4x_k")
		b.ReportMetric(mGrowth, "multik_growth_4x_k")
	}
}

// --- Table 3: quality vs multi-k-means --------------------------------------

func BenchmarkTable3Quality(b *testing.B) {
	const k = 32
	spec := dataset.Spec{K: k, Dim: 10, N: 15_000, CenterRange: 100,
		StdDev: 1, MinSeparation: 8, Seed: 13}
	for i := 0; i < b.N; i++ {
		env, ds := benchEnv(b, spec, benchCluster())
		g, err := core.Run(core.Config{Env: env, Seed: 14})
		if err != nil {
			b.Fatal(err)
		}
		gAssign := lloyd.Assign(ds.Points, g.Centers)
		gDist := lloyd.AverageDistance(ds.Points, g.Centers, gAssign)

		mcfg := kmeansmr.MultiConfig{Env: env, KMin: k, KMax: k, Iterations: 10, Seed: 15}
		m, err := kmeansmr.RunMulti(mcfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := kmeansmr.Evaluate(mcfg, m); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gDist, "gmeans_avgdist")
		b.ReportMetric(m.AvgDistByK[k], "multik_avgdist")
		b.ReportMetric(m.AvgDistByK[k]/gDist, "multik/gmeans")
	}
}

// --- Figure 4: local minima -------------------------------------------------

func BenchmarkFig4LocalMinima(b *testing.B) {
	spec := dataset.Spec{K: 10, Dim: 2, N: 10_000, CenterRange: 100, StdDev: 2,
		MinSeparation: 18, Seed: 16}
	for i := 0; i < b.N; i++ {
		env, ds := benchEnv(b, spec, benchCluster())
		g, err := core.Run(core.Config{Env: env, Seed: 17})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(coverageOf(ds, g.Centers)), "gmeans_covered")
		b.ReportMetric(float64(g.K), "gmeans_k")

		mcfg := kmeansmr.MultiConfig{Env: env, KMin: 10, KMax: 10, Iterations: 10, Seed: 18}
		m, err := kmeansmr.RunMulti(mcfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(coverageOf(ds, m.CentersByK[10])), "multik_covered")
	}
}

func coverageOf(ds *dataset.Dataset, centers []vec.Vector) int {
	n := 0
	limit := 3 * ds.Spec.StdDev
	for _, truth := range ds.Centers {
		if _, d2 := vec.NearestIndex(truth, centers); d2 <= limit*limit {
			n++
		}
	}
	return n
}

// --- Table 4 / Figure 5: node scaling ---------------------------------------

func BenchmarkTable4NodeScaling(b *testing.B) {
	spec := dataset.Spec{K: 50, Dim: 10, N: 60_000, CenterRange: 100,
		StdDev: 1, MinSeparation: 8, Seed: 19}
	ds, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	split := spec.N * spec.Dim * 18 / 96
	for _, nodes := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			fs := dfs.New(split)
			ds.WriteToDFS(fs, "/data/points.txt")
			env := kmeansmr.Env{FS: fs, Cluster: benchCluster().WithNodes(nodes),
				Input: "/data/points.txt", Dim: spec.Dim}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{Env: env, Seed: 20})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.K), "k_found")
			}
		})
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationMerge measures the paper's proposed post-processing
// (merge close centers) against the raw over-estimated center set.
func BenchmarkAblationMerge(b *testing.B) {
	spec := dataset.Spec{K: 20, Dim: 2, N: 20_000, CenterRange: 100, StdDev: 2,
		MinSeparation: 15, Seed: 31}
	for i := 0; i < b.N; i++ {
		env, _ := benchEnv(b, spec, benchCluster())
		res, err := core.Run(core.Config{Env: env, Seed: 32})
		if err != nil {
			b.Fatal(err)
		}
		merged := core.MergeCloseCenters(res.Centers, core.SuggestMergeRadius(res.Centers))
		b.ReportMetric(float64(res.K), "k_raw")
		b.ReportMetric(float64(len(merged)), "k_merged")
	}
}

// BenchmarkXMeansVsGMeans compares k recovery of the two iterative
// k-finders the paper discusses.
func BenchmarkXMeansVsGMeans(b *testing.B) {
	spec := dataset.Spec{K: 12, Dim: 4, N: 12_000, CenterRange: 100, StdDev: 1,
		MinSeparation: 15, Seed: 37}
	b.Run("gmeans", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env, _ := benchEnv(b, spec, benchCluster())
			res, err := core.Run(core.Config{Env: env, Seed: 38})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.K), "k_found")
		}
	})
	b.Run("xmeans", func(b *testing.B) {
		ds, err := dataset.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := xmeans.Run(ds.Points, xmeans.Config{KMax: 64, Seed: 39})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.K), "k_found")
		}
	})
}

// --- Serving path: assignment throughput -------------------------------------

// servingFixture builds an assignment server over a trained-shaped model
// (k centers in R^dim) plus a query stream drawn from the same mixture.
func servingFixture(b *testing.B, k, dim int) (*serve.Server, []vec.Vector) {
	b.Helper()
	ds, err := dataset.Generate(dataset.Spec{K: k, Dim: dim, N: 4096,
		CenterRange: 100, StdDev: 1, MinSeparation: 8, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	m, err := model.FromTraining(ds.Centers, ds.Points, nil, model.Meta{Algorithm: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(m, serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return srv, ds.Points
}

// BenchmarkAssign measures single-query latency on the serving hot path,
// across all cores the way a live server takes traffic. Every singleton
// takes the scalar scan, so k sets the scan's length.
func BenchmarkAssign(b *testing.B) {
	for _, k := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			srv, queries := servingFixture(b, k, 10)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := srv.Assign(queries[i%len(queries)]); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkAssignBatch measures bulk-assignment throughput: one consistent
// model snapshot answering a whole batch, the shape /v1/assign/batch
// serves.
func BenchmarkAssignBatch(b *testing.B) {
	const batch = 1024
	for _, k := range []int{64, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			srv, queries := servingFixture(b, k, 10)
			points := queries[:batch]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.AssignBatch(points); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(batch, "points/op")
		})
	}
}

// --- Microbenchmarks of the hot kernels --------------------------------------

// BenchmarkIterationHotPath times one repeated MR k-means iteration
// (d=10, n=100k) on the decoded-split cache with in-mapper combining —
// the steady state of a chained-job workload — with and without a live
// trace attached.
func BenchmarkIterationHotPath(b *testing.B) {
	spec := dataset.Spec{K: 16, Dim: 10, N: 100_000, CenterRange: 100,
		StdDev: 1, MinSeparation: 8, Seed: 73}
	env, ds := benchEnv(b, spec, benchCluster())
	centers := ds.Centers

	// Warm the decode cache, so the runs below measure the steady state
	// the repeated-iteration workload lives in.
	if _, err := kmeansmr.Iterate(env, centers); err != nil {
		b.Fatal(err)
	}

	b.Run("cached-inmapper", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kmeansmr.Iterate(env, centers); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(spec.N), "points")
	})
	// The observability gate: the same cached iteration with a live trace
	// attached. Instrumentation is batch-level only (task and phase spans,
	// never per record), so this must stay within noise of cached-inmapper —
	// CI enforces <2% (see ci.yml).
	b.Run("cached-inmapper-observed", func(b *testing.B) {
		tracedEnv := env
		tracedEnv.Trace = obs.NewTrace()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tracedEnv.Trace.Reset()
			if _, err := kmeansmr.Iterate(tracedEnv, centers); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(spec.N), "points")
	})
}

// BenchmarkColdScan measures the cost of a *first* decode of a text
// dataset (ParseFloat per coordinate) — the cold scan a file written as
// raw bytes pays on its opening pass, as a worker's pushed replica does.
// Each iteration re-creates the file, which invalidates the decode cache,
// so every scan is cold.
func BenchmarkColdScan(b *testing.B) {
	spec := dataset.Spec{K: 16, Dim: 10, N: 100_000, CenterRange: 100,
		StdDev: 1, MinSeparation: 8, Seed: 79}
	ds, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	split := spec.N * spec.Dim * 18 / 32
	scanAll := func(fs *dfs.FS, path string) int {
		splits, err := fs.Splits(path)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, sp := range splits {
			ps, err := fs.OpenSplitPoints(sp, spec.Dim)
			if err != nil {
				b.Fatal(err)
			}
			n += ps.Len()
		}
		return n
	}

	var textBytes []byte
	{
		fs := dfs.New(split)
		ds.WriteToDFS(fs, "/p")
		textBytes, _ = fs.Contents("/p")
	}

	b.Run("text-parse", func(b *testing.B) {
		fs := dfs.New(split)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fs.Create("/p", textBytes) // invalidates the decode cache: scan below is cold
			if n := scanAll(fs, "/p"); n != spec.N {
				b.Fatalf("scanned %d points, want %d", n, spec.N)
			}
		}
		b.ReportMetric(float64(spec.N), "points")
		b.ReportMetric(float64(len(textBytes)), "file_bytes")
	})
}

// BenchmarkStage measures a Run's ingest: the facade staging an n=200k,
// d=16 point stream into the DFS as text, then the driver's first scan
// (SampleUpTo), which is the first pass to need the staged points. The
// stream is generated once and replayed from memory, so the timing holds
// only measuring each record's text length, keeping the points and the
// first scan.
func BenchmarkStage(b *testing.B) {
	spec := dataset.Spec{K: 16, Dim: 16, N: 200_000, CenterRange: 100,
		StdDev: 1, MinSeparation: 8, Seed: 89}
	ds, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New()
	if err != nil {
		b.Fatal(err)
	}
	src := FromPoints(ds.Points)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.stage(ctx, src, nil, BackendLocal)
		if err != nil {
			b.Fatal(err)
		}
		sample, err := kmeansmr.SampleUpTo(st.env, 2, 1)
		if err != nil || len(sample) != 2 {
			b.Fatalf("first scan: %d points, %v", len(sample), err)
		}
		st.cleanup()
	}
	b.ReportMetric(float64(spec.N), "points")
}

// BenchmarkReduceMerge measures the engine's k-way heap merge of per-task
// sorted runs on the reduce side. The shape mirrors a real shuffle — many
// runs (one per map task) of combined output, duplicate keys across runs.
// Its order against the historical concatenate + stable sort is pinned by
// internal/mr's TestMergeRunsMatchesConcatSort.
func BenchmarkReduceMerge(b *testing.B) {
	const (
		numRuns = 64  // map tasks feeding one reducer
		perRun  = 512 // combined records per run
		keys    = 256 // distinct keys → heavy duplication
	)
	rng := rand.New(rand.NewSource(83))
	runs := make([][]mr.KV, numRuns)
	for t := range runs {
		run := make([]mr.KV, perRun)
		for i := range run {
			run[i] = mr.KV{Key: int64(rng.Intn(keys)), Value: mr.Int64Value(int64(t*perRun + i))}
		}
		slices.SortStableFunc(run, func(a, c mr.KV) int { return cmp.Compare(a.Key, c.Key) })
		runs[t] = run
	}

	b.Run("kway-heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := mr.MergeRuns(runs); len(out) != numRuns*perRun {
				b.Fatal("bad merge")
			}
		}
		b.ReportMetric(numRuns, "runs")
	})
}

// BenchmarkColumnarAssign times one repeated MR k-means assignment pass
// (d=16, n=100k, k=32) on the columnar split layout: one fused
// vec.NearestBatch kernel call per split.
func BenchmarkColumnarAssign(b *testing.B) {
	spec := dataset.Spec{K: 32, Dim: 16, N: 100_000, CenterRange: 100,
		StdDev: 1, MinSeparation: 8, Seed: 89}
	env, ds := benchEnv(b, spec, benchCluster())
	centers := ds.Centers

	// Warm the decode cache and the columnar views, so the timed runs
	// measure the steady state of a chained workload.
	if _, err := kmeansmr.Iterate(env, centers); err != nil {
		b.Fatal(err)
	}

	// Each op is the mean of assignReps iterations, so the CI single-op run
	// (-benchtime 1x) is robust against one-off scheduling or GC outliers.
	const assignReps = 3
	b.Run("columnar-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < assignReps; r++ {
				if _, err := kmeansmr.Iterate(env, centers); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(spec.N), "points")
		b.ReportMetric(assignReps, "iterations/op")
	})
}

func BenchmarkKMeansIterationMR(b *testing.B) {
	spec := dataset.Spec{K: 32, Dim: 10, N: 50_000, CenterRange: 100,
		StdDev: 1, MinSeparation: 8, Seed: 41}
	env, ds := benchEnv(b, spec, benchCluster())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kmeansmr.Iterate(env, ds.Centers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(spec.N), "points")
}

// BenchmarkAndersonDarling times one full test (normalize, sort, A²).
// The 997-distinct case is mostly ties, which the comparison sort handles
// cheaply; the Gaussian cases are what the reducer actually tests: n =
// 6,250 is a final cluster of the benchmark's 200k-point, k = 32 data,
// and n = 200 is a small cluster, where the radix sort's fixed cost
// (its 8×256 counts) weighs most.
func BenchmarkAndersonDarling(b *testing.B) {
	distinct := make([]float64, 10_000)
	for i := range distinct {
		distinct[i] = float64(i%997) / 997
	}
	gauss := func(n int) []float64 {
		r := rand.New(rand.NewSource(int64(n)))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		return xs
	}
	for _, c := range []struct {
		name string
		xs   []float64
	}{
		{"distinct997-n10000", distinct},
		{"gauss-n6250", gauss(6250)},
		{"gauss-n200", gauss(200)},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]float64, len(c.xs))
			for i := 0; i < b.N; i++ {
				copy(buf, c.xs)
				if _, err := stats.ADTest(buf, 0.0001, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParsePoint times the known-dimension record parse the DFS
// decode runs once per record of a cold split.
func BenchmarkParsePoint(b *testing.B) {
	line := dataset.FormatPoint(vec.Vector{12.345678, -9.87654321, 3.14159265,
		2.71828182, 100.5, 0.001, 42, 7.77, -55.5, 1e-9})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pointtext.AppendPoint(make([]float64, 0, 10), line, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearestIndex(b *testing.B) {
	ds, err := dataset.Generate(dataset.Spec{K: 100, Dim: 10, N: 100, Seed: 43})
	if err != nil {
		b.Fatal(err)
	}
	p := ds.Points[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.NearestIndex(p, ds.Centers)
	}
}

// BenchmarkAblationMultiSeeding compares the paper's random multi-k-means
// seeding with the k-means++ production initializer it recommends.
func BenchmarkAblationMultiSeeding(b *testing.B) {
	const k = 32
	spec := dataset.Spec{K: k, Dim: 10, N: 15_000, CenterRange: 100,
		StdDev: 1, MinSeparation: 8, Seed: 55}
	for _, seeding := range []kmeansmr.MultiSeeding{kmeansmr.MultiSeedRandom, kmeansmr.MultiSeedPlusPlus} {
		name := "random"
		if seeding == kmeansmr.MultiSeedPlusPlus {
			name = "plusplus"
		}
		b.Run(name, func(b *testing.B) {
			env, _ := benchEnv(b, spec, benchCluster())
			for i := 0; i < b.N; i++ {
				cfg := kmeansmr.MultiConfig{Env: env, KMin: k, KMax: k,
					Iterations: 10, Seeding: seeding, Seed: 56}
				res, err := kmeansmr.RunMulti(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := kmeansmr.Evaluate(cfg, res); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgDistByK[k], "avgdist")
			}
		})
	}
}

// BenchmarkSeqVsMRGMeans compares the original sequential G-means (one
// cluster split at a time) with the paper's MapReduce adaptation (every
// cluster tested and split in parallel each round) on k recovery; both
// place principal-component children (Hamerly & Elkan).
func BenchmarkSeqVsMRGMeans(b *testing.B) {
	spec := dataset.Spec{K: 16, Dim: 4, N: 16_000, CenterRange: 100, StdDev: 1,
		MinSeparation: 12, Seed: 61}
	ds, err := dataset.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential-principal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := seqgmeans.Run(ds.Points, seqgmeans.Config{Seed: 62})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.K), "k_found")
			b.ReportMetric(float64(coverageOf(ds, res.Centers)), "covered")
		}
	})
	b.Run("mapreduce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env, _ := benchEnv(b, spec, benchCluster())
			res, err := core.Run(core.Config{Env: env, Seed: 62})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.K), "k_found")
			b.ReportMetric(float64(coverageOf(ds, res.Centers)), "covered")
		}
	})
}
