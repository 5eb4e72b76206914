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
	parts, err := buildTest(spec.Payload, 2)
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
