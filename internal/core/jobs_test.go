package core

import (
	"math"
	"math/rand"
	"testing"

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

func TestFewReducerMajorityWeightedBySampleSize(t *testing.T) {
	// One big rejecting mapper outweighs two small accepting ones.
	values := []mr.Value{
		mr.ADDecisionValue{N: 500, Normal: false},
		mr.ADDecisionValue{N: 30, Normal: true},
		mr.ADDecisionValue{N: 30, Normal: true},
	}
	r := &fewReducer{}
	em := &collectEmitter{}
	if err := r.Reduce(newTaskCtx(0), 0, values, em); err != nil {
		t.Fatal(err)
	}
	if em.out[0].Value.(mr.ADDecisionValue).Normal {
		t.Error("sample-size weighting ignored")
	}
}

// TestFewReducerVotePolicies checks the one vote policy left, the
// sample-size-weighted majority: a rejecting minority is outvoted, an exact
// tie accepts, and N and the sample-weighted A*² mean cover every decision.
func TestFewReducerVotePolicies(t *testing.T) {
	r := &fewReducer{}
	for _, c := range []struct {
		values []mr.Value
		normal bool
		n      int64
		a2     float64
	}{
		{[]mr.Value{
			mr.ADDecisionValue{A2Star: 0.5, N: 100, Normal: true},
			mr.ADDecisionValue{A2Star: 2.5, N: 40, Normal: false},
			mr.ADDecisionValue{A2Star: 0.6, N: 80, Normal: true},
		}, true, 220, (0.5*100 + 2.5*40 + 0.6*80) / 220},
		{[]mr.Value{
			mr.ADDecisionValue{A2Star: 3, N: 50, Normal: false},
			mr.ADDecisionValue{A2Star: 1, N: 50, Normal: true},
		}, true, 100, 2},
	} {
		em := &collectEmitter{}
		if err := r.Reduce(newTaskCtx(0), 0, c.values, em); err != nil {
			t.Fatal(err)
		}
		d := em.out[0].Value.(mr.ADDecisionValue)
		if d.Normal != c.normal || d.N != c.n || math.Abs(d.A2Star-c.a2) > 1e-12 {
			t.Errorf("decision = %+v, want normal=%v N=%d A2*=%v", d, c.normal, c.n, c.a2)
		}
	}
}

func TestFewReducerEmptyGroup(t *testing.T) {
	r := &fewReducer{}
	em := &collectEmitter{}
	if err := r.Reduce(newTaskCtx(0), 0, nil, em); err != nil {
		t.Fatal(err)
	}
	if len(em.out) != 0 {
		t.Error("empty group produced a decision")
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

func TestVotePolicyRandomizedNeverPanics(t *testing.T) {
	// Fuzz the vote reducer with random decision sets.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(6)
		values := make([]mr.Value, n)
		for i := range values {
			values[i] = mr.ADDecisionValue{
				A2Star: r.Float64() * 3,
				N:      int64(r.Intn(500)),
				Normal: r.Intn(2) == 0,
			}
		}
		red := &fewReducer{}
		em := &collectEmitter{}
		if err := red.Reduce(newTaskCtx(0), int64(trial), values, em); err != nil {
			t.Fatal(err)
		}
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
