package core

import (
	"math"
	"math/rand"
	"testing"

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

func wp(coords ...float64) mr.Value {
	return mr.OwnWeightedPointValue(vec.Vector(coords))
}

func TestKFNCReducerMergesBelowOffset(t *testing.T) {
	r := &kfncReducer{seed: 1}
	if err := r.Setup(newTaskCtx(0)); err != nil {
		t.Fatal(err)
	}
	em := &collectEmitter{}
	err := r.Reduce(newTaskCtx(0), 3, []mr.Value{wp(1, 2), wp(3, 4), wp(5, 6)}, em)
	if err != nil {
		t.Fatal(err)
	}
	if len(em.out) != 1 {
		t.Fatalf("emitted %d pairs", len(em.out))
	}
	got := em.out[0].Value.(mr.WeightedPointValue)
	if got.Count != 3 || !vec.ApproxEqual(got.Centroid(), vec.Vector{3, 4}, 1e-12) {
		t.Errorf("merged = %+v", got)
	}
}

func TestKFNCReducerKeepsTwoCandidatesAboveOffset(t *testing.T) {
	r := &kfncReducer{seed: 1}
	r.Setup(newTaskCtx(0))
	em := &collectEmitter{}
	values := []mr.Value{wp(1, 1), wp(2, 2), wp(3, 3), wp(4, 4), wp(5, 5)}
	if err := r.Reduce(newTaskCtx(0), Offset+7, values, em); err != nil {
		t.Fatal(err)
	}
	if len(em.out) != 2 {
		t.Fatalf("kept %d candidates, want 2", len(em.out))
	}
	a := em.out[0].Value.(mr.WeightedPointValue)
	b := em.out[1].Value.(mr.WeightedPointValue)
	if vec.Equal(a.Sum, b.Sum) {
		t.Error("candidate picks are not distinct")
	}
	// Fewer than two values pass through unchanged.
	em = &collectEmitter{}
	r.Reduce(newTaskCtx(0), Offset+7, []mr.Value{wp(9, 9)}, em)
	if len(em.out) != 1 {
		t.Errorf("single candidate emitted %d", len(em.out))
	}
	em = &collectEmitter{}
	r.Reduce(newTaskCtx(0), Offset+7, nil, em)
	if len(em.out) != 0 {
		t.Errorf("empty group emitted %d", len(em.out))
	}
}

func TestKFNCReducerDeterministicByKey(t *testing.T) {
	// Same seed and key must pick the same candidates regardless of which
	// reduce task processes the group (the node-scaling invariant).
	values := []mr.Value{wp(1, 1), wp(2, 2), wp(3, 3), wp(4, 4), wp(5, 5), wp(6, 6)}
	pick := func() []mr.KV {
		r := &kfncReducer{seed: 42}
		r.Setup(newTaskCtx(0))
		em := &collectEmitter{}
		r.Reduce(newTaskCtx(0), Offset+11, values, em)
		return em.out
	}
	a, b := pick(), pick()
	for i := range a {
		av := a[i].Value.(mr.WeightedPointValue)
		bv := b[i].Value.(mr.WeightedPointValue)
		if !vec.Equal(av.Sum, bv.Sum) {
			t.Fatal("candidate picks differ across identical reduces")
		}
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

func TestRetestWithFreshChildren(t *testing.T) {
	a := &activeCluster{
		parent:  vec.Vector{5, 5},
		next1:   []vec.Vector{{1, 1}, {2, 2}},
		next2:   []vec.Vector{{8, 8}, {9, 9}},
		accepts: 1,
	}
	r := a.retestWithFreshChildren()
	if r == nil {
		t.Fatal("retest should be possible with 4 candidates")
	}
	if !vec.Equal(r.parent, a.parent) {
		t.Error("parent changed")
	}
	if !vec.Equal(r.c1, vec.Vector{1, 1}) || !vec.Equal(r.c2, vec.Vector{9, 9}) {
		t.Errorf("children = %v, %v", r.c1, r.c2)
	}
	if r.accepts != 1 {
		t.Errorf("accepts = %d", r.accepts)
	}
	// Not enough candidates → nil.
	b := &activeCluster{parent: vec.Vector{1}, next1: []vec.Vector{{2}}}
	if b.retestWithFreshChildren() != nil {
		t.Error("retest with one candidate should fail")
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
