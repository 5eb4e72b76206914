package kmeansmr

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/vec"
)

// discard is an emitter that drops every pair.
type discard struct{}

func (discard) Emit(int64, mr.Value) {}

// splitOf returns points as one decoded split's columns.
func splitOf(points []vec.Vector) *dfs.ColumnarSplit {
	dim := len(points[0])
	flat := make([]float64, 0, len(points)*dim)
	for _, p := range points {
		flat = append(flat, p...)
	}
	return dfs.NewPointSplit(flat, dim, 0).Columns()
}

// firstKSets returns the center sets k = 1..kmax of a multi-k job's first
// iteration as the facade seeds it: the first k of kmax centers chosen
// by k-means++ over points.
func firstKSets(points []vec.Vector, kmax int, seed int64) (map[int][]vec.Vector, []int) {
	sample := lloyd.Seed(points, kmax, lloyd.SeedPlusPlus, rand.New(rand.NewSource(seed)))
	sets := make(map[int][]vec.Vector, kmax)
	ks := make([]int, 0, kmax)
	for k := 1; k <= kmax; k++ {
		sets[k] = vec.CloneAll(sample[:k])
		ks = append(ks, k)
	}
	return sets, ks
}

// groupedOutputs runs the grouped assignment of the sets in ks over
// points and returns each set's idx and dist over the whole split, with
// the number of sets that took the grouped path.
func groupedOutputs(t *testing.T, points []vec.Vector, sets map[int][]vec.Vector, ks []int) ([][]int32, [][]float64, int) {
	t.Helper()
	cols := splitOf(points)
	n := cols.Len()
	idx, dist := make([][]int32, len(ks)), make([][]float64, len(ks))
	for i := range ks {
		idx[i], dist[i] = make([]int32, n), make([]float64, n)
	}
	next := make([]int, len(ks))
	a := groupAssigner{plan: newGroupPlan(sets, ks, cols.Dim())}
	err := a.assign(cols, func(i, lo int, ix []int32, d []float64) error {
		if lo != next[i] {
			t.Fatalf("k=%d: run starts at %d, want %d (input order)", ks[i], lo, next[i])
		}
		copy(idx[i][lo:], ix)
		copy(dist[i][lo:], d)
		next[i] = lo + len(ix)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		if next[i] != n {
			t.Fatalf("k=%d: runs cover %d of %d points", k, next[i], n)
		}
	}
	return idx, dist, len(a.grouped)
}

// TestGroupedAssignMatchesNearestBatch pins the grouped assignment to the
// full kernel: for every k, each point's index and distance bits equal
// vec.NearestBatch's over all of that k's centers, on inputs built to
// break the pruning bound's arithmetic.
func TestGroupedAssignMatchesNearestBatch(t *testing.T) {
	mixture := func(k, dim, n int, seed int64) []vec.Vector {
		ds, err := dataset.Generate(dataset.Spec{K: k, Dim: dim, N: n,
			CenterRange: 100, StdDev: 1, MinSeparation: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return ds.Points
	}
	sets := func(points []vec.Vector, kmin, kmax, kstep int, seed int64) (map[int][]vec.Vector, []int) {
		all, _ := firstKSets(points, kmax, seed)
		out := make(map[int][]vec.Vector)
		var ks []int
		for k := kmin; k <= kmax; k += kstep {
			out[k] = all[k]
			ks = append(ks, k)
		}
		return out, ks
	}
	fill := func(dim int, v float64) vec.Vector {
		p := make(vec.Vector, dim)
		for d := range p {
			p[d] = v
		}
		return p
	}

	type tc struct {
		name    string
		points  []vec.Vector
		sets    map[int][]vec.Vector
		ks      []int
		grouped bool // some set must take the grouped path
	}
	var cases []tc

	// A mixture over several chunks, k = 1..24: the pruning path itself.
	pts := mixture(8, 16, 9000, 1)
	s, ks := sets(pts, 1, 24, 1, 2)
	cases = append(cases, tc{"mixture-chunks", pts, s, ks, true})

	// Duplicate centers, exact ties and points equidistant from two
	// centers, on lattice blocks where every distance is exact. The
	// reference set repeats a center, so its copy's group has no members,
	// and has a center on an isolated point: a group of radius 0.
	var lattice []vec.Vector
	anchors := [][2]float64{{0, 0}, {100, 0}, {0, 100}, {100, 100}, {50, 50}}
	for _, a := range anchors {
		for x := -2.0; x <= 2; x++ {
			for y := -2.0; y <= 2; y++ {
				lattice = append(lattice, vec.Vector{a[0] + x, a[1] + y, 0, 0, 1})
			}
		}
	}
	lattice = append(lattice, vec.Vector{300, 300, 0, 0, 1})
	at := func(x, y float64) vec.Vector { return vec.Vector{x, y, 0, 0, 1} }
	var ref, pairs, dups []vec.Vector
	for _, a := range anchors {
		ref = append(ref, at(a[0], a[1]), at(a[0], a[1]))
		pairs = append(pairs, at(a[0]-1, a[1]), at(a[0]+1, a[1]))
		dups = append(dups, at(a[0], a[1]+1), at(a[0], a[1]+1))
	}
	ref = append(ref, at(300, 300), at(-500, -500))
	cases = append(cases, tc{"ties-duplicates", lattice, map[int][]vec.Vector{
		1:  {at(50, 50)},
		2:  {at(50, 49), at(50, 51)},
		10: pairs,
		11: append(dups, at(2, 2)),
		12: ref,
	}, []int{1, 2, 10, 11, 12}, true})

	// Non-finite and extreme coordinates among a mixture: NaN and ±Inf
	// points (index −1), points whose squared distances overflow or
	// underflow, and sets with a non-finite or huge center.
	hostile := mixture(8, 5, 2000, 3)
	hs, hks := sets(hostile, 1, 16, 1, 4)
	hostile = append(hostile,
		fill(5, math.NaN()), fill(5, math.Inf(1)), fill(5, math.Inf(-1)),
		vec.Vector{math.NaN(), 1, 1, 1, 1}, vec.Vector{math.Inf(1), 0, 0, 0, 0},
		fill(5, 1e154), fill(5, -1e154), vec.Vector{1e154, 0, 0, 0, 0}, fill(5, 1.3e154),
		fill(5, 5e-324), fill(5, 1e-310), fill(5, -1e-320))
	hs[3] = append(vec.CloneAll(hs[3][:2]), fill(5, math.Inf(1)))
	hs[4] = append(vec.CloneAll(hs[4][:3]), fill(5, math.NaN()))
	hs[5] = append(vec.CloneAll(hs[5][:4]), fill(5, 1e154))
	cases = append(cases, tc{"non-finite-extreme", hostile, hs, hks, true})

	// Scales at both ends of the range: a mixture whose squared distances
	// are near the bottom of the normal range (the absolute floor
	// decides), with subnormal points; and one whose squared distances
	// overflow.
	for _, sc := range []struct {
		name  string
		scale float64
		extra []vec.Vector
	}{
		{"near-underflow", 1e-150, []vec.Vector{fill(6, 5e-324), fill(6, 0x1p-1070), fill(6, -0x1p-1060), fill(6, 0)}},
		{"overflow", 1e151, []vec.Vector{fill(6, 1e153), fill(6, -1e154), fill(6, 1e308)}},
	} {
		var pts []vec.Vector
		for _, p := range mixture(8, 6, 1500, 5) {
			pts = append(pts, vec.Scale(p, sc.scale))
		}
		ss, sks := sets(pts, 1, 16, 1, 6)
		cases = append(cases, tc{sc.name, append(pts, sc.extra...), ss, sks, true})
	}

	// A point whose distance to its reference center underflows to 0, so
	// its group's computed radius is 0 while the exact one is not, and two
	// centers whose distances from the reference center differ by less
	// than that radius: x is nearer the second, which only the absolute
	// floor keeps.
	const near, e = 1e-153, 0.8e-162
	var under []vec.Vector
	for _, p := range []vec.Vector{{-e, -e}, {1, 1}, {2, 2}, {1000, 1}, {1, 1000}} {
		for c := 0; c < 8; c++ { // whole kernel groups: no padding
			under = append(under, p)
		}
	}
	cases = append(cases, tc{"underflow-radius", under,
		map[int][]vec.Vector{
			8: {{near, 0}, {0, -(near + 1e-162)}, {1000, 0}, {0, 1000},
				{-1000, 0}, {0, -1000}, {1000, 1000}, {-1000, -1000}},
			9: {{0, 0}, {1, 1}, {2, 2}, {1000, 0}, {0, 1000},
				{-1000, 0}, {0, -1000}, {1000, 1000}, {-1000, -1000}},
		}, []int{8, 9}, true})

	// A one-center set alone, KStep 3, and KMin = KMax.
	small := mixture(5, 3, 700, 9)
	s1, k1 := sets(small, 1, 1, 1, 10)
	cases = append(cases, tc{"one-center", small, s1, k1, false})
	s3, k3 := sets(small, 2, 20, 3, 11)
	cases = append(cases, tc{"kstep-3", small, s3, k3, true})
	s7, k7 := sets(small, 7, 7, 1, 12)
	cases = append(cases, tc{"kmin-eq-kmax", small, s7, k7, false})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			idx, dist, grouped := groupedOutputs(t, c.points, c.sets, c.ks)
			cols := splitOf(c.points)
			n := cols.Len()
			for i, k := range c.ks {
				want, wantD := make([]int32, n), make([]float64, n)
				vec.NearestBatch(c.sets[k], cols.Flat(), n, want, wantD, nil)
				for j := range want {
					if idx[i][j] != want[j] || math.Float64bits(dist[i][j]) != math.Float64bits(wantD[j]) {
						t.Fatalf("k=%d point %d %v: grouped (%d, %x), full scan (%d, %x)", k, j, c.points[j],
							idx[i][j], math.Float64bits(dist[i][j]), want[j], math.Float64bits(wantD[j]))
					}
				}
			}
			if c.grouped && grouped == 0 {
				t.Error("every set ran the full kernel: the grouped path went untested")
			}
		})
	}
}

// TestGroupPlanBoundsTable pins the table bound: sets whose distance
// table would exceed maxTableEntries build none and run the full kernel,
// and the answers stay exact.
func TestGroupPlanBoundsTable(t *testing.T) {
	ds, err := dataset.Generate(dataset.Spec{K: 8, Dim: 2, N: 400, MinSeparation: 10, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(73))
	big := func(k int) []vec.Vector {
		c := make([]vec.Vector, k)
		for i := range c {
			c[i] = vec.Vector{100 * rng.Float64(), 100 * rng.Float64()}
		}
		return c
	}
	sets, ks := map[int][]vec.Vector{1500: big(1500), 1501: big(1501)}, []int{1500, 1501}
	if p := newGroupPlan(sets, ks, 2); p.table != nil {
		t.Fatalf("built a table for %d-center sets", len(p.sets[p.ref]))
	}
	idx, dist, grouped := groupedOutputs(t, ds.Points, sets, ks)
	if grouped > 0 {
		t.Errorf("%d sets took the grouped path", grouped)
	}
	cols := splitOf(ds.Points)
	n := cols.Len()
	for i, k := range ks {
		want, wantD := make([]int32, n), make([]float64, n)
		vec.NearestBatch(sets[k], cols.Flat(), n, want, wantD, nil)
		for j := range want {
			if idx[i][j] != want[j] || math.Float64bits(dist[i][j]) != math.Float64bits(wantD[j]) {
				t.Fatalf("k=%d point %d: grouped (%d, %v), full scan (%d, %v)", k, j, idx[i][j], dist[i][j], want[j], wantD[j])
			}
		}
	}
}

// prunedEnv is a multi-split K = 32, d = 16 mixture: large enough k_max
// (64) for the group bounds to prune most of every k's centers.
func prunedEnv(t *testing.T) Env {
	env, _ := testEnv(t, dataset.Spec{K: 32, Dim: 16, N: 4000,
		CenterRange: 100, StdDev: 1, MinSeparation: 8, Seed: 61}, 600<<10)
	return env
}

// TestRunMultiPrunedMatchesPointReference checks RunMulti and Evaluate at
// a shape where the grouped assignment prunes against a point-at-a-time
// reference: vec.NearestIndex over every center of every k, each point
// merged into a per-task vec.WeightedPoint in input order, the task sums
// merged in task order, every bit compared.
func TestRunMultiPrunedMatchesPointReference(t *testing.T) {
	env := prunedEnv(t)
	cfg := MultiConfig{Env: env, KMin: 1, KMax: 64, Iterations: 3, Seed: 62}
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Evaluate(cfg, res); err != nil {
		t.Fatal(err)
	}

	splits, err := env.FS.Splits(env.Input)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 2 {
		t.Fatalf("%d splits, want several tasks", len(splits))
	}
	var parts [][]vec.Vector
	for _, sp := range splits {
		ps, err := env.FS.OpenSplitPoints(sp, env.Dim)
		if err != nil {
			t.Fatal(err)
		}
		var pts []vec.Vector
		for j := 0; j < ps.Len(); j++ {
			pts = append(pts, ps.At(j))
		}
		parts = append(parts, pts)
	}
	sample, err := SamplePoints(env, cfg.KMax, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for k := cfg.KMin; k <= cfg.KMax; k++ {
		centers := vec.CloneAll(sample[:k])
		for it := 0; it < cfg.Iterations; it++ {
			totals := make([]vec.WeightedPoint, k)
			for _, pts := range parts {
				task := make([]vec.WeightedPoint, k)
				for _, p := range pts {
					best, _ := vec.NearestIndex(p, centers)
					task[best].Merge(vec.WeightedPoint{Sum: p, Count: 1})
				}
				for c, wp := range task {
					if wp.Count > 0 {
						totals[c].Merge(wp)
					}
				}
			}
			for c, wp := range totals {
				if wp.Count > 0 {
					centers[c] = wp.Centroid()
				}
			}
		}
		var sumD2, sumD float64
		var count int64
		for _, pts := range parts {
			var task evalValue
			for _, p := range pts {
				_, d2 := vec.NearestIndex(p, centers)
				task.SumD2 += d2
				task.SumD += math.Sqrt(d2)
				task.Count++
			}
			sumD2 += task.SumD2
			sumD += task.SumD
			count += task.Count
		}
		for c := range centers {
			if !vec.Equal(res.CentersByK[k][c], centers[c]) {
				t.Fatalf("k=%d center %d: RunMulti %v, reference %v", k, c, res.CentersByK[k][c], centers[c])
			}
		}
		if math.Float64bits(res.WCSSByK[k]) != math.Float64bits(sumD2) {
			t.Errorf("k=%d: WCSS %v, reference %v", k, res.WCSSByK[k], sumD2)
		}
		if avg := sumD / float64(count); math.Float64bits(res.AvgDistByK[k]) != math.Float64bits(avg) {
			t.Errorf("k=%d: mean distance %v, reference %v", k, res.AvgDistByK[k], avg)
		}
	}
}

// TestGroupedAssignCost is the deterministic cost guard of the grouped
// assignment: on the pruning shape, with the center sets multi-k-means
// reaches from the facade's k-means++ seeding, the kernel evaluates at
// most 15% of the n·Σk distances the paper's cost model (and
// app.distance.computations) counts. The share depends on the k_max
// solution: a k_max center between two true clusters gives its group a
// radius of half their separation, and that group keeps most centers of
// every k. From random seeding this mixture leaves such a center and
// reads 21%; from k-means++ it reads 8.8–8.9% on five mixtures of this
// shape.
func TestGroupedAssignCost(t *testing.T) {
	env := prunedEnv(t)
	cfg := MultiConfig{Env: env, KMin: 1, KMax: 64, Iterations: 3, Seed: 62, Seeding: MultiSeedPlusPlus}
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ks []int
	for k := range res.CentersByK {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	parts, err := buildEval(evalSpec(res.CentersByK, ks).Payload, env.Dim)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := env.FS.Splits(env.Input)
	if err != nil {
		t.Fatal(err)
	}
	var computed, modelled int64
	for _, sp := range splits {
		ps, err := env.FS.OpenSplitPoints(sp, env.Dim)
		if err != nil {
			t.Fatal(err)
		}
		m := parts.NewPointMapper().(*evalMapper)
		ctx := &mr.TaskContext{}
		if err := m.Setup(ctx); err != nil {
			t.Fatal(err)
		}
		if err := m.MapColumns(ctx, ps.Columns(), discard{}); err != nil {
			t.Fatal(err)
		}
		computed += m.assign.computed
		modelled += m.dists
	}
	frac := float64(computed) / float64(modelled)
	t.Logf("computed %d of n·Σk = %d distances (%.1f%%)", computed, modelled, 100*frac)
	if frac > 0.15 {
		t.Errorf("grouped assignment computed %.1f%% of n·Σk distances, want ≤ 15%%", 100*frac)
	}
}

// BenchmarkMultiKMapper times one multi-k map task: Setup, MapColumns and
// Close of the kmeans.multik mapper over one 12.5k-point split, d = 16,
// under the first iteration's center sets for k = 1..64. The job's shared
// plan is built once, outside the timer, as a job builds it once for all
// its tasks. The mixture is the perfledger multik workload's shape (32
// clusters, separation 8); the uniform cube is the case where group
// bounds prune least.
func BenchmarkMultiKMapper(b *testing.B) {
	const n, dim, kmax = 12_500, 16, 64
	mixture, err := dataset.Generate(dataset.Spec{K: 32, Dim: dim, N: n,
		CenterRange: 100, StdDev: 1, MinSeparation: 8, Seed: 1001})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	uniform := make([]vec.Vector, n)
	for i := range uniform {
		uniform[i] = make(vec.Vector, dim)
		for d := range uniform[i] {
			uniform[i][d] = 100 * rng.Float64()
		}
	}
	for _, c := range []struct {
		name   string
		points []vec.Vector
	}{{"mixture", mixture.Points}, {"uniform", uniform}} {
		b.Run(c.name, func(b *testing.B) {
			cols := splitOf(c.points)
			parts, err := buildMultiK(multikSpec(firstKSets(c.points, kmax, 3)).Payload, dim)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := parts.NewPointMapper()
				ctx := &mr.TaskContext{}
				if err := m.Setup(ctx); err != nil {
					b.Fatal(err)
				}
				if err := m.MapColumns(ctx, cols, discard{}); err != nil {
					b.Fatal(err)
				}
				if err := m.Close(ctx, discard{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}
