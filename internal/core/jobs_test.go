package core

import (
	"math"
	"math/rand"
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/vec"
)

// collectEmitter gathers emissions for unit-testing reducers in isolation.
type collectEmitter struct {
	out []mr.KV
}

func (e *collectEmitter) Emit(key int64, v mr.Value) {
	e.out = append(e.out, mr.KV{Key: key, Value: v})
}

func newTaskCtx(heap int64) *mr.TaskContext {
	// The zero TaskContext works for unit tests; only heap-related tests
	// need a real budget, which the engine normally installs.
	return &mr.TaskContext{}
}

// TestKFNCReducerDeterministicByKey: the reducer of the KFNC step places a
// key's children from (seed, key) and the key's values alone, so the
// candidates do not depend on which reduce task processes the group or on
// what else it reduced before (the node-scaling invariant).
func TestKFNCReducerDeterministicByKey(t *testing.T) {
	group := func(shift float64) []mr.Value {
		a, b := newCovValue(2), newCovValue(2)
		for _, p := range []vec.Vector{{0, 0}, {4, 1}, {8, 2}} {
			a.add(vec.Vector{p[0] + shift, p[1]})
		}
		b.add(vec.Vector{2 + shift, 3})
		b.add(vec.Vector{6 + shift, -1})
		a.mirrorOuter()
		b.mirrorOuter()
		return []mr.Value{*a, *b}
	}
	reduce := func(keys []int64) []mr.KV {
		r := &pcaReducer{seed: 42}
		r.Setup(newTaskCtx(0))
		em := &collectEmitter{}
		for _, k := range keys {
			if err := r.Reduce(newTaskCtx(0), k, group(float64(k)), em); err != nil {
				t.Fatal(err)
			}
		}
		return em.out
	}
	alone := reduce([]int64{11})
	shared := reduce([]int64{3, 11})
	if len(alone) != 2 || len(shared) != 4 {
		t.Fatalf("emitted %d and %d children, want 2 per key", len(alone), len(shared))
	}
	for i, kv := range alone {
		other := shared[2+i]
		if kv.Key != 11 || other.Key != 11 {
			t.Fatalf("keys %d, %d, want 11", kv.Key, other.Key)
		}
		a, b := kv.Value.(mr.PointValue).Coords, other.Value.(mr.PointValue).Coords
		for d := range a {
			if math.Float64bits(a[d]) != math.Float64bits(b[d]) {
				t.Fatalf("child %d differs across reduce tasks: %v vs %v", i, a, b)
			}
		}
	}
	if vec.Equal(alone[0].Value.(mr.PointValue).Coords, alone[1].Value.(mr.PointValue).Coords) {
		t.Error("the two children coincide on a spread cluster")
	}
}

// TestTestMapperSamplesLargeClusters: the test job ships about
// testSampleSize projections of a cluster much larger than that, every
// projection of a cluster at most that large, and re-running a map task
// emits the same records bit for bit.
func TestTestMapperSamplesLargeClusters(t *testing.T) {
	const tasks, bigPerSplit, smallPerSplit = 10, 4000, 300
	rng := rand.New(rand.NewSource(5))
	splits := make([]*dfs.ColumnarSplit, tasks)
	for s := range splits {
		var flat []float64
		for j := 0; j < bigPerSplit+smallPerSplit; j++ {
			// Interleave the clusters so the sample's record indices mix.
			x := rng.NormFloat64()
			if j%((bigPerSplit+smallPerSplit)/smallPerSplit) == 0 {
				x += 100
			}
			flat = append(flat, x, rng.NormFloat64())
		}
		splits[s] = dfs.NewPointSplit(flat, 2, 0).Columns()
	}
	sizes := make([]int64, 2)
	parents := []vec.Vector{{0, 0}, {100, 0}}
	for _, cols := range splits {
		for j := 0; j < cols.Len(); j++ {
			best, _ := vec.NearestIndex(cols.At(j), parents)
			sizes[best]++
		}
	}
	if sizes[0] <= 4*testSampleSize || sizes[1] > testSampleSize {
		t.Fatalf("cluster sizes %v: want one ≫ %d and one ≤ it", sizes, testSampleSize)
	}
	spec := testSpec(Config{Alpha: 0.0001, Seed: 3}, parents, 0,
		[]vec.Vector{{1, 0}, {1, 0}}, sizes, 2)
	parts, err := buildTest(spec.Payload)
	if err != nil {
		t.Fatal(err)
	}
	mapTask := func(task int) []mr.KV {
		m := parts.NewPointMapper()
		ctx := &mr.TaskContext{TaskID: task}
		m.Setup(ctx)
		em := &collectEmitter{}
		if err := m.MapColumns(ctx, splits[task], em); err != nil {
			t.Fatal(err)
		}
		m.Close(ctx, em)
		return em.out
	}
	got := make([]int64, 2)
	for task := range splits {
		out := mapTask(task)
		for _, kv := range out {
			got[kv.Key]++
		}
		again := mapTask(task)
		if len(again) != len(out) {
			t.Fatalf("task %d emitted %d records, then %d", task, len(out), len(again))
		}
		for i := range out {
			a, b := out[i].Value.(mr.Float64Value), again[i].Value.(mr.Float64Value)
			if out[i].Key != again[i].Key || math.Float64bits(float64(a)) != math.Float64bits(float64(b)) {
				t.Fatalf("task %d record %d: %v then %v", task, i, out[i], again[i])
			}
		}
	}
	if tol := 5 * math.Sqrt(testSampleSize); math.Abs(float64(got[0]-testSampleSize)) > tol {
		t.Errorf("cluster of %d points: reducer gets %d projections, want %d ± %.0f",
			sizes[0], got[0], testSampleSize, tol)
	}
	if got[1] != sizes[1] {
		t.Errorf("cluster of %d points: reducer gets %d projections, want every one", sizes[1], got[1])
	}
}

func TestSplitVector(t *testing.T) {
	a := &activeCluster{c1: vec.Vector{3, 4}, c2: vec.Vector{1, 1}}
	if got := a.splitVector(); !vec.Equal(got, vec.Vector{2, 3}) {
		t.Errorf("splitVector = %v", got)
	}
}

func TestLiveCentersLayout(t *testing.T) {
	found := []vec.Vector{{0}, {1}}
	active := []*activeCluster{
		{c1: vec.Vector{10}, c2: vec.Vector{11}},
		{c1: vec.Vector{20}, c2: vec.Vector{21}},
	}
	got := liveCenters(found, active)
	want := []float64{0, 1, 10, 11, 20, 21}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i, w := range want {
		if got[i][0] != w {
			t.Errorf("liveCenters[%d] = %v, want %v", i, got[i], w)
		}
	}
}

func TestWriteBackDistributesKFNCOutput(t *testing.T) {
	found := []vec.Vector{{0}}
	active := []*activeCluster{{c1: vec.Vector{9}, c2: vec.Vector{9}}}
	kfnc := &kfncOutput{
		centers:    []vec.Vector{{0.5}, {10}, {11}},
		sizes:      []int64{100, 40, 60},
		candidates: [][]vec.Vector{nil, {{10.1}}, {{11.1}, {11.2}}},
	}
	writeBack(found, active, kfnc)
	a := active[0]
	if a.c1[0] != 10 || a.c2[0] != 11 {
		t.Errorf("children = %v, %v", a.c1, a.c2)
	}
	if a.size1 != 40 || a.size2 != 60 || a.parentSize() != 100 {
		t.Errorf("sizes = %d, %d", a.size1, a.size2)
	}
	if len(a.next1) != 1 || len(a.next2) != 2 {
		t.Errorf("candidates = %v, %v", a.next1, a.next2)
	}
}

func TestCovValueStatistics(t *testing.T) {
	// Accumulate known points and verify mean/covariance extraction.
	pts := []vec.Vector{{1, 0}, {-1, 0}, {0, 2}, {0, -2}}
	acc := newCovValue(2)
	for _, p := range pts {
		acc.add(p)
	}
	if acc.Count != 4 {
		t.Fatalf("count = %d", acc.Count)
	}
	n := float64(acc.Count)
	mean := vec.Scale(acc.Sum, 1/n)
	if !vec.ApproxEqual(mean, vec.Vector{0, 0}, 1e-12) {
		t.Errorf("mean = %v", mean)
	}
	// cov = E[xxᵀ] − μμᵀ: diag(0.5, 2), off-diagonal 0.
	cov := make([]float64, 4)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			cov[i*2+j] = acc.Outer[i*2+j]/n - mean[i]*mean[j]
		}
	}
	want := []float64{0.5, 0, 0, 2}
	for i := range want {
		if diff := cov[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("cov[%d] = %v, want %v", i, cov[i], want[i])
		}
	}
}

func TestCovValueMerge(t *testing.T) {
	a, b := newCovValue(2), newCovValue(2)
	a.add(vec.Vector{1, 2})
	b.add(vec.Vector{3, 4})
	b.add(vec.Vector{5, 6})
	a.merge(*b)
	if a.Count != 3 || a.Sum[0] != 9 || a.Sum[1] != 12 {
		t.Errorf("merged = %+v", a)
	}
}

// TestCovValueTriangleMatchesFull: accumulating only the upper triangle of
// Σx·xᵀ and mirroring it gives the full accumulation bit for bit, on random
// points, on tied points and on signed zeros.
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
		tri := newCovValue(d)
		for _, p := range set {
			tri.add(p)
		}
		tri.mirrorOuter()
		for i := range full {
			if math.Float64bits(tri.Outer[i]) != math.Float64bits(full[i]) {
				t.Fatalf("%d points, Outer[%d] = %v (%x), full accumulation %v (%x)", len(set),
					i, tri.Outer[i], math.Float64bits(tri.Outer[i]), full[i], math.Float64bits(full[i]))
			}
		}
	}
}

// TestPCAMapperSkipsFrozenCenters: points still assign against every
// center, but only clusters at index ≥ foundCount emit statistics.
func TestPCAMapperSkipsFrozenCenters(t *testing.T) {
	flat := []float64{0, 0, 0.5, 0.5, 10, 10, 10.5, 9.5, 20, 20}
	cols := dfs.NewPointSplit(flat, 2, 0).Columns()
	m := &pcaMapper{centers: []vec.Vector{{0, 0}, {10, 10}, {20, 20}}, foundCount: 1}
	m.Setup(newTaskCtx(0))
	if err := m.MapColumns(newTaskCtx(0), cols, nil); err != nil {
		t.Fatal(err)
	}
	em := &collectEmitter{}
	m.Close(newTaskCtx(0), em)
	counts := map[int64]int64{}
	for _, kv := range em.out {
		counts[kv.Key] = kv.Value.(covValue).Count
	}
	if len(counts) != 2 || counts[1] != 2 || counts[2] != 1 {
		t.Errorf("emitted counts %v, want {1:2 2:1} (center 0 is frozen)", counts)
	}
}

// TestPCAMapperMatchesPerPointAdd: grouping a split's points by center
// and folding them four at a time gives every cluster the Sum, Outer and
// Count bits of adding its points one by one in input order. The split
// has frozen centers listed first, unfrozen clusters of 0, 1, 3, 4, 5 and
// 4m+3 points, rows no center is finite for (best < 0), and coordinates
// over many magnitudes and with signed zeros, in shuffled order.
func TestPCAMapperMatchesPerPointAdd(t *testing.T) {
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
	for k := 0; k < 3; k++ {
		p := make(vec.Vector, d)
		p[k] = math.Inf(1 - 2*(k%2))
		pts = append(pts, p)
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })

	flat := make([]float64, 0, len(pts)*d)
	want := map[int64]*covValue{}
	unassigned := 0
	for _, p := range pts {
		flat = append(flat, p...)
		best, _ := vec.NearestIndex(p, centers)
		if best < 0 {
			unassigned++
		}
		if best < foundCount {
			continue
		}
		if want[int64(best)] == nil {
			want[int64(best)] = newCovValue(d)
		}
		want[int64(best)].add(p)
	}
	if unassigned != 3 {
		t.Fatalf("%d rows without a nearest center, want the 3 infinite ones", unassigned)
	}
	m := &pcaMapper{centers: centers, foundCount: foundCount}
	m.Setup(newTaskCtx(0))
	if err := m.MapColumns(newTaskCtx(0), dfs.NewPointSplit(flat, d, 0).Columns(), nil); err != nil {
		t.Fatal(err)
	}
	em := &collectEmitter{}
	m.Close(newTaskCtx(0), em)
	if len(em.out) != len(want) {
		t.Fatalf("%d clusters emitted, want %d (the empty cluster and frozen ones emit nothing)", len(em.out), len(want))
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for _, kv := range em.out {
		got, w := kv.Value.(covValue), want[kv.Key]
		if w == nil {
			t.Fatalf("cluster %d emitted, but no point is nearest to it", kv.Key)
		}
		w.mirrorOuter()
		if got.Count != w.Count || got.Count != int64(sizes[kv.Key]) {
			t.Errorf("cluster %d: Count %d, per-point add %d, generated %d", kv.Key, got.Count, w.Count, sizes[kv.Key])
		}
		if !same(got.Sum, w.Sum) || !same(got.Outer, w.Outer) {
			t.Errorf("cluster %d (%d points): statistics differ from per-point add\nSum %v\nwant %v", kv.Key, got.Count, got.Sum, w.Sum)
		}
	}
}

// BenchmarkPCAMapColumns times one candidate-job map task: a 12,500 × 16
// split (one split of the gmeans-local benchmark's data) against 32
// centers, 8 of them frozen.
func BenchmarkPCAMapColumns(b *testing.B) {
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
		m := &pcaMapper{centers: ds.Centers, foundCount: 8}
		m.Setup(newTaskCtx(0))
		if err := m.MapColumns(newTaskCtx(0), cols, nil); err != nil {
			b.Fatal(err)
		}
		m.Close(newTaskCtx(0), &collectEmitter{})
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
