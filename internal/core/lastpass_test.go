package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/vec"
)

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// pointsEnv stages pts as a DFS point file split every splitSize bytes.
func pointsEnv(t testing.TB, pts []vec.Vector, splitSize int) kmeansmr.Env {
	t.Helper()
	fs := dfs.New(splitSize)
	w := fs.PointWriter("/p.txt", len(pts[0]))
	for _, p := range pts {
		w.Append(p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return kmeansmr.Env{FS: fs, Cluster: smallCluster(), Input: "/p.txt", Dim: len(pts[0])}
}

// scatterOf accumulates Σx, the count and the packed scatter of pts about
// c one point and one entry at a time, in input order: the reference the
// mapper's grouped fold must match bit for bit.
func scatterOf(pts []vec.Vector, c vec.Vector) *covValue {
	d := len(c)
	v := &covValue{Scatter: make([]float64, triangleLen(d))}
	for _, p := range pts {
		v.Merge(vec.WeightedPoint{Sum: p, Count: 1})
		y := vec.Sub(p, c)
		for i, off := 0, 0; i < d; off, i = off+d-i, i+1 {
			for j := i; j < d; j++ {
				v.Scatter[off+j-i] += y[i] * y[j]
			}
		}
	}
	return v
}

// TestLastPassMatchesIterate: the last pass's centers, sizes, distance and
// point counts equal a plain k-means pass's on the same input centers bit
// for bit, over several map tasks, with frozen centers leading the list,
// an empty center, signed zeros and coordinates over many magnitudes. Its
// children exist exactly for the unfrozen centers with points, and it
// counts d(d+1)/2 covariance updates per point of those.
func TestLastPassMatchesIterate(t *testing.T) {
	const d, foundCount = 5, 2
	ds, err := dataset.Generate(dataset.Spec{K: 6, Dim: d, N: 3000, CenterRange: 100,
		StdDev: 1, MinSeparation: 10, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	pts := vec.CloneAll(ds.Points)
	negZero := math.Copysign(0, -1)
	for i := 0; i < len(pts); i += 7 {
		pts[i][i%d] *= math.Pow(10, float64(rng.Intn(9)-4))
	}
	pts = append(pts, vec.Vector{negZero, 0, negZero, negZero, 0}, vec.Vector{negZero, negZero, negZero, negZero, negZero})
	env := pointsEnv(t, pts, 16<<10)

	centers := make([]vec.Vector, 0, len(ds.Centers)+1)
	for _, c := range ds.Centers {
		p := vec.Clone(c)
		for j := range p {
			p[j] += rng.NormFloat64()
		}
		centers = append(centers, p)
	}
	centers = append(centers, vec.Vector{1e6, 1e6, 1e6, 1e6, 1e6}) // attracts no point

	want, err := kmeansmr.Iterate(env, centers)
	if err != nil {
		t.Fatal(err)
	}
	counters := mr.NewCounters()
	got, err := lastPass(Config{Env: env, Seed: 5}, centers, foundCount, 1, counters)
	if err != nil {
		t.Fatal(err)
	}
	if want.Job.MapTasks < 3 {
		t.Fatalf("%d map tasks: the reducers merge nothing", want.Job.MapTasks)
	}
	var unfrozen int64
	for i := range centers {
		if !sameBits(got.centers[i], want.Centers[i]) || got.sizes[i] != want.Sizes[i] {
			t.Errorf("center %d: %v (%d points), k-means pass %v (%d points)",
				i, got.centers[i], got.sizes[i], want.Centers[i], want.Sizes[i])
		}
		wantChildren := 2
		if i < foundCount || want.Sizes[i] == 0 {
			wantChildren = 0
		} else {
			unfrozen += want.Sizes[i]
		}
		if len(got.candidates[i]) != wantChildren {
			t.Errorf("center %d: %d children, want %d", i, len(got.candidates[i]), wantChildren)
		}
	}
	if want.Sizes[len(centers)-1] != 0 {
		t.Fatal("the far center attracted points")
	}
	for _, name := range []string{kmeansmr.CounterDistances, kmeansmr.CounterPoints} {
		if g, w := counters.Get(name), want.Job.Counters.Get(name); g != w {
			t.Errorf("%s = %d, k-means pass %d", name, g, w)
		}
	}
	if g, w := counters.Get(CounterCovUpdates), unfrozen*int64(triangleLen(d)); g != w {
		t.Errorf("%s = %d, want %d (%d points of unfrozen clusters)", CounterCovUpdates, g, w, unfrozen)
	}
}

// referenceChildren places the principal children of the points nearest
// to centers[key] in memory: the two-pass covariance of that membership,
// then the reducer's power iteration from the reducer's start vector.
func referenceChildren(pts, centers []vec.Vector, key int64, seed int64) (mean, offset vec.Vector) {
	var members []vec.Vector
	for _, p := range pts {
		if best, _ := vec.NearestIndex(p, centers); int64(best) == key {
			members = append(members, p)
		}
	}
	d := len(centers[0])
	mean = vec.Mean(members)
	cov := make([]float64, d*d)
	for _, p := range members {
		y := vec.Sub(p, mean)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				cov[i*d+j] += y[i] * y[j]
			}
		}
	}
	for i := range cov {
		cov[i] /= float64(len(members))
	}
	dir, lambda := powerIteration(cov, d, 50, rand.New(rand.NewSource(seed*999_983^key)))
	return mean, vec.Scale(dir, math.Sqrt(2*lambda/math.Pi))
}

// TestLastPassChildrenMatchReference: the children the reducer derives
// from the scatter about the input center match the in-memory principal
// children of the membership under the input centers within 1e-9
// relative, on elongated clusters whose input centers are off their
// means.
func TestLastPassChildrenMatchReference(t *testing.T) {
	const d, perCluster, foundCount = 4, 700, 1
	rng := rand.New(rand.NewSource(43))
	truth := []vec.Vector{{0, 0, 0, 0}, {40, 0, 10, 0}, {0, 40, 0, -30}, {50, 50, 50, 50}}
	var pts []vec.Vector
	for _, c := range truth {
		// A fixed random linear map per cluster gives a full covariance
		// with distinct eigenvalues.
		a := make([]float64, d*d)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for k := 0; k < perCluster; k++ {
			g := make([]float64, d)
			for i := range g {
				g[i] = rng.NormFloat64()
			}
			p := vec.Clone(c)
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					p[i] += a[i*d+j] * g[j]
				}
			}
			pts = append(pts, p)
		}
	}
	centers := make([]vec.Vector, len(truth))
	for i, c := range truth {
		centers[i] = vec.Add(c, vec.Vector{1, -0.5, 0.7, 0.3})
	}
	env := pointsEnv(t, pts, 16<<10)
	cfg := Config{Env: env, Seed: 9}
	const round = 3
	got, err := lastPass(cfg, centers, foundCount, round, mr.NewCounters())
	if err != nil {
		t.Fatal(err)
	}
	for key := int64(foundCount); key < int64(len(centers)); key++ {
		mean, offset := referenceChildren(pts, centers, key, cfg.Seed+round)
		children := got.candidates[key]
		if len(children) != 2 {
			t.Fatalf("center %d: %d children", key, len(children))
		}
		for i, want := range []vec.Vector{vec.Add(mean, offset), vec.Sub(mean, offset)} {
			if diff := vec.Dist(children[i], want); diff > 1e-9*vec.Norm(offset) {
				t.Errorf("center %d child %d: %v, reference %v (off by %.3g, offset norm %.3g)",
					key, i, children[i], want, diff, vec.Norm(offset))
			}
		}
	}
}

// TestLastPassSplitsFarFromOrigin: two unit-σ blobs offset by 1e8 on
// every coordinate. Raw second moments there are about 1e16 per entry, so
// a covariance taken as E[xxᵀ] − μμᵀ would cancel to rounding noise;
// the scatter about the input center keeps the sums at the blobs' own
// scale, and the children split along the axis joining the blobs.
func TestLastPassSplitsFarFromOrigin(t *testing.T) {
	const d, perBlob = 4, 500
	axis := vec.Vector{1, 2, -1, 0.5}
	vec.ScaleInPlace(axis, 1/vec.Norm(axis))
	rng := rand.New(rand.NewSource(44))
	var pts []vec.Vector
	for b := 0; b < 2; b++ {
		for k := 0; k < perBlob; k++ {
			p := make(vec.Vector, d)
			for i := range p {
				p[i] = 1e8 + 6*float64(b)*axis[i] + rng.NormFloat64()
			}
			pts = append(pts, p)
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	env := pointsEnv(t, pts, 16<<10)
	got, err := lastPass(Config{Env: env, Seed: 2}, []vec.Vector{vec.Clone(pts[0])}, 0, 1, mr.NewCounters())
	if err != nil {
		t.Fatal(err)
	}
	children := got.candidates[0]
	if len(children) != 2 {
		t.Fatalf("%d children", len(children))
	}
	split := vec.Sub(children[0], children[1])
	if cos := math.Abs(vec.Dot(split, axis)) / vec.Norm(split); !(cos > 0.99) {
		t.Errorf("children %v, %v split at |cos| %.4f to the blob axis, want > 0.99", children[0], children[1], cos)
	}
}

// TestKFNCReducerDeterministicByKey: the reducer of the KFNC step places a
// key's children from (seed, key) and the key's values alone, so the
// candidates do not depend on which reduce task processes the group or on
// what else it reduced before (the node-scaling invariant).
func TestKFNCReducerDeterministicByKey(t *testing.T) {
	centers := make([]vec.Vector, 12)
	for k := range centers {
		centers[k] = vec.Vector{float64(k) + 4, 1}
	}
	group := func(shift float64) []mr.Value {
		c := vec.Vector{shift + 4, 1}
		a := scatterOf([]vec.Vector{{shift, 0}, {4 + shift, 1}, {8 + shift, 2}}, c)
		b := scatterOf([]vec.Vector{{2 + shift, 3}, {6 + shift, -1}}, c)
		return []mr.Value{*a, *b}
	}
	reduce := func(keys []int64) []mr.KV {
		r := &kfncReducer{centers: centers, seed: 42}
		r.Setup(&mr.TaskContext{})
		em := &collectEmitter{}
		for _, k := range keys {
			if err := r.Reduce(&mr.TaskContext{}, k, group(float64(k)), em); err != nil {
				t.Fatal(err)
			}
		}
		return em.out
	}
	alone := reduce([]int64{11})
	shared := reduce([]int64{3, 11})
	if len(alone) != 3 || len(shared) != 6 {
		t.Fatalf("emitted %d and %d values, want the statistics and 2 children per key", len(alone), len(shared))
	}
	if wp := alone[0].Value.(mr.WeightedPointValue); wp.Count != 5 {
		t.Errorf("center count %d, want 5", wp.Count)
	}
	for i, kv := range alone[1:] {
		other := shared[4+i]
		if kv.Key != 11 || other.Key != 11 {
			t.Fatalf("keys %d, %d, want 11", kv.Key, other.Key)
		}
		a, b := kv.Value.(mr.PointValue).Coords, other.Value.(mr.PointValue).Coords
		if !sameBits(a, b) {
			t.Fatalf("child %d differs across reduce tasks: %v vs %v", i, a, b)
		}
	}
	if vec.Equal(alone[1].Value.(mr.PointValue).Coords, alone[2].Value.(mr.PointValue).Coords) {
		t.Error("the two children coincide on a spread cluster")
	}
}

func TestCovValueStatistics(t *testing.T) {
	// Accumulate known points about an off-mean center and verify the
	// mean and the covariance about it.
	pts := []vec.Vector{{1, 0}, {-1, 0}, {0, 2}, {0, -2}}
	c := vec.Vector{3, -1}
	acc := scatterOf(pts, c)
	if acc.Count != 4 {
		t.Fatalf("count = %d", acc.Count)
	}
	mean := acc.Centroid()
	if !vec.ApproxEqual(mean, vec.Vector{0, 0}, 1e-12) {
		t.Errorf("mean = %v", mean)
	}
	// cov = S/n − δδᵀ: diag(0.5, 2), off-diagonal 0.
	cov := acc.covariance(mean, c)
	want := []float64{0.5, 0, 0, 2}
	for i := range want {
		if diff := cov[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("cov[%d] = %v, want %v", i, cov[i], want[i])
		}
	}
}

func TestCovValueMerge(t *testing.T) {
	c := vec.Vector{0, 0}
	a := scatterOf([]vec.Vector{{1, 2}}, c)
	b := scatterOf([]vec.Vector{{3, 4}, {5, 6}}, c)
	a.merge(*b)
	if a.Count != 3 || a.Sum[0] != 9 || a.Sum[1] != 12 {
		t.Errorf("merged = %+v", a)
	}
	// Packed [xx, xy, yy]: 1+9+25, 2+12+30, 4+16+36.
	if !sameBits(a.Scatter, []float64{35, 44, 56}) {
		t.Errorf("merged scatter = %v", a.Scatter)
	}
	frozen := covValue{WeightedPoint: vec.WeightedPoint{Sum: vec.Vector{1, 1}, Count: 1}}
	frozen.merge(covValue{WeightedPoint: vec.WeightedPoint{Sum: vec.Vector{2, 2}, Count: 2}})
	if frozen.Count != 3 || frozen.Scatter != nil {
		t.Errorf("frozen merge = %+v, want no scatter", frozen)
	}
}

// TestCovValueTriangleMatchesFull: the packed upper triangle of Σyyᵀ
// that addScatter4 accumulates, four points at a time with the last group
// padded by zero vectors, holds entry (i, j) of the full one-point-at-a-
// time accumulation bit for bit, on random points, on tied points and on
// signed zeros.
func TestCovValueTriangleMatchesFull(t *testing.T) {
	const d = 5
	rng := rand.New(rand.NewSource(17))
	var pts []vec.Vector
	for i := 0; i < 200; i++ {
		p := make(vec.Vector, d)
		for j := range p {
			p[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		pts = append(pts, p)
	}
	tied := vec.Vector{1.5, 1.5, -1.5, 1.5, 0.1}
	for i := 0; i < 20; i++ {
		pts = append(pts, vec.Clone(tied))
	}
	negZero := math.Copysign(0, -1)
	pts = append(pts,
		vec.Vector{negZero, 0, negZero, 3, -2},
		vec.Vector{0, negZero, 1, negZero, negZero},
		vec.Vector{negZero, negZero, negZero, negZero, negZero})

	for _, set := range [][]vec.Vector{pts, pts[200:220], pts[220:]} {
		full := make([]float64, d*d)
		for _, p := range set {
			for i := 0; i < d; i++ {
				for j := 0; j < d; j++ {
					full[i*d+j] += p[i] * p[j]
				}
			}
		}
		tri := &covValue{Scatter: make([]float64, triangleLen(d))}
		for r := 0; r < len(set); r += 4 {
			var y [4]vec.Vector
			for k := range y {
				y[k] = make(vec.Vector, d)
				if r+k < len(set) {
					copy(y[k], set[r+k])
				}
			}
			tri.addScatter4(y[0], y[1], y[2], y[3])
		}
		for i, off := 0, 0; i < d; off, i = off+d-i, i+1 {
			for j := i; j < d; j++ {
				if got := tri.Scatter[off+j-i]; math.Float64bits(got) != math.Float64bits(full[i*d+j]) {
					t.Fatalf("%d points, entry (%d, %d) = %v, full accumulation %v", len(set), i, j, got, full[i*d+j])
				}
			}
		}
	}
}

// TestKFNCMapperSkipsFrozenCenters: points assign against every center
// and every non-empty center gets its Σx and count, but only clusters at
// index ≥ foundCount carry a scatter.
func TestKFNCMapperSkipsFrozenCenters(t *testing.T) {
	flat := []float64{0, 0, 0.5, 0.5, 10, 10, 10.5, 9.5, 20, 20}
	cols := dfs.NewPointSplit(flat, 2, 0).Columns()
	m := &kfncMapper{centers: []vec.Vector{{0, 0}, {10, 10}, {20, 20}}, foundCount: 1}
	m.Setup(&mr.TaskContext{})
	if err := m.MapColumns(&mr.TaskContext{}, cols, nil); err != nil {
		t.Fatal(err)
	}
	em := &collectEmitter{}
	m.Close(&mr.TaskContext{}, em)
	counts := map[int64]int64{}
	for _, kv := range em.out {
		cv := kv.Value.(covValue)
		counts[kv.Key] = cv.Count
		if frozen := kv.Key < 1; frozen != (cv.Scatter == nil) {
			t.Errorf("center %d: scatter %v", kv.Key, cv.Scatter)
		}
	}
	if len(counts) != 3 || counts[0] != 2 || counts[1] != 2 || counts[2] != 1 {
		t.Errorf("emitted counts %v, want {0:2 1:2 2:1}", counts)
	}
}

// TestKFNCMapperMatchesPerPointAdd: grouping a split's points by center
// and folding them four at a time gives every cluster the Sum, Count and
// Scatter bits of adding its points one by one in input order. The split
// has frozen centers listed first, unfrozen clusters of 0, 1, 3, 4, 5 and
// 4m+3 points, and coordinates over many magnitudes and with signed
// zeros, in shuffled order. A row no center is finite for fails the task,
// as it fails the k-means pass.
func TestKFNCMapperMatchesPerPointAdd(t *testing.T) {
	const d = 6
	sizes := []int{7, 2, 0, 1, 3, 4, 5, 4*9 + 3} // centers 0 and 1 are frozen
	const foundCount = 2
	rng := rand.New(rand.NewSource(23))
	centers := make([]vec.Vector, len(sizes))
	var pts []vec.Vector
	negZero := math.Copysign(0, -1)
	for c, size := range sizes {
		centers[c] = make(vec.Vector, d)
		centers[c][0] = 1000 * float64(c)
		for k := 0; k < size; k++ {
			p := vec.Clone(centers[c])
			for j := range p {
				p[j] += rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-3))
			}
			if k%3 == 1 {
				p[1+k%(d-1)] = negZero
			}
			pts = append(pts, p)
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })

	flat := make([]float64, 0, len(pts)*d)
	members := map[int64][]vec.Vector{}
	for _, p := range pts {
		flat = append(flat, p...)
		best, _ := vec.NearestIndex(p, centers)
		members[int64(best)] = append(members[int64(best)], p)
	}
	m := &kfncMapper{centers: centers, foundCount: foundCount}
	m.Setup(&mr.TaskContext{})
	if err := m.MapColumns(&mr.TaskContext{}, dfs.NewPointSplit(flat, d, 0).Columns(), nil); err != nil {
		t.Fatal(err)
	}
	em := &collectEmitter{}
	m.Close(&mr.TaskContext{}, em)
	if len(em.out) != len(members) {
		t.Fatalf("%d clusters emitted, want %d (the empty cluster emits nothing)", len(em.out), len(members))
	}
	for _, kv := range em.out {
		got := kv.Value.(covValue)
		if members[kv.Key] == nil {
			t.Fatalf("cluster %d emitted, but no point is nearest to it", kv.Key)
		}
		w := scatterOf(members[kv.Key], centers[kv.Key])
		if kv.Key < foundCount {
			w.Scatter = nil
		}
		if got.Count != w.Count || got.Count != int64(sizes[kv.Key]) {
			t.Errorf("cluster %d: Count %d, per-point add %d, generated %d", kv.Key, got.Count, w.Count, sizes[kv.Key])
		}
		if !sameBits(got.Sum, w.Sum) || !sameBits(got.Scatter, w.Scatter) {
			t.Errorf("cluster %d (%d points): statistics differ from per-point add\nSum %v\nwant %v", kv.Key, got.Count, got.Sum, w.Sum)
		}
	}

	inf := make([]float64, d)
	inf[2] = math.Inf(-1)
	m = &kfncMapper{centers: centers, foundCount: foundCount}
	m.Setup(&mr.TaskContext{})
	err := m.MapColumns(&mr.TaskContext{}, dfs.NewPointSplit(append(flat[:d:d], inf...), d, 0).Columns(), nil)
	if err == nil || !strings.Contains(err.Error(), "no nearest center") {
		t.Errorf("a row with no finite distance: error %v", err)
	}
}

// BenchmarkKFNCMapColumns times one map task of the last k-means pass: a
// 12,500 × 16 split (one split of the gmeans-local benchmark's data)
// against 32 centers, 8 of them frozen.
func BenchmarkKFNCMapColumns(b *testing.B) {
	ds, err := dataset.Generate(dataset.Spec{K: 32, Dim: 16, N: 12_500, CenterRange: 100,
		StdDev: 1, MinSeparation: 8, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	flat := make([]float64, 0, len(ds.Points)*16)
	for _, p := range ds.Points {
		flat = append(flat, p...)
	}
	cols := dfs.NewPointSplit(flat, 16, 0).Columns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &kfncMapper{centers: ds.Centers, foundCount: 8}
		m.Setup(&mr.TaskContext{})
		if err := m.MapColumns(&mr.TaskContext{}, cols, nil); err != nil {
			b.Fatal(err)
		}
		m.Close(&mr.TaskContext{}, &collectEmitter{})
	}
}

func TestPowerIterationDiagonal(t *testing.T) {
	// diag(1, 9): dominant eigenpair is (0,±1) with λ=9.
	cov := []float64{1, 0, 0, 9}
	rng := rand.New(rand.NewSource(1))
	dir, lambda := powerIteration(cov, 2, 100, rng)
	if lambda < 8.99 || lambda > 9.01 {
		t.Errorf("lambda = %v, want 9", lambda)
	}
	if d := dir[1] * dir[1]; d < 0.999 {
		t.Errorf("direction %v not aligned with dominant axis", dir)
	}
}

func TestPowerIterationZeroMatrix(t *testing.T) {
	cov := make([]float64, 9)
	rng := rand.New(rand.NewSource(2))
	_, lambda := powerIteration(cov, 3, 20, rng)
	if lambda != 0 {
		t.Errorf("lambda = %v for zero covariance", lambda)
	}
}
