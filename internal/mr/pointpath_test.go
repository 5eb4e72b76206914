package mr

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"gmeansmr/internal/dfs"
)

// sumPointMapper accumulates per-dimension sums in-mapper and emits one
// value per dimension at Close — the canonical shape of a point job.
type sumPointMapper struct {
	sums []float64
}

func (m *sumPointMapper) Setup(*TaskContext) error { return nil }

func (m *sumPointMapper) MapColumns(_ *TaskContext, cols *dfs.ColumnarSplit, _ Emitter) error {
	if m.sums == nil {
		m.sums = make([]float64, cols.Dim())
	}
	n := cols.Len()
	for d := range m.sums {
		col := cols.Col(d)
		for j := 0; j < n; j++ {
			m.sums[d] += col[j]
		}
	}
	return nil
}

func (m *sumPointMapper) Close(_ *TaskContext, emit Emitter) error {
	for d, s := range m.sums {
		emit.Emit(int64(d), Float64Value(s))
	}
	return nil
}

func sumReducer() Reducer {
	return ReducerFunc(func(_ *TaskContext, key int64, values []Value, emit Emitter) error {
		var s float64
		for _, v := range values {
			s += float64(v.(Float64Value))
		}
		emit.Emit(key, Float64Value(s))
		return nil
	})
}

func pointPathJob(fs *dfs.FS, dim int) *Job {
	return &Job{
		Name:           "point-sum",
		FS:             fs,
		Cluster:        Cluster{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1},
		Input:          "/pts",
		PointDim:       dim,
		NewPointMapper: func() PointMapper { return &sumPointMapper{} },
		NewReducer:     func() Reducer { return sumReducer() },
	}
}

func TestPointMapperFastPath(t *testing.T) {
	fs := dfs.New(64) // several splits
	var b strings.Builder
	want := []float64{0, 0}
	for i := 0; i < 100; i++ {
		x, y := float64(i), float64(2*i)
		want[0] += x
		want[1] += y
		b.WriteString(dfsFormat(x, y))
	}
	fs.Create("/pts", []byte(b.String()))

	res, err := pointPathJob(fs, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]float64{}
	for _, kv := range res.Output {
		got[kv.Key] = float64(kv.Value.(Float64Value))
	}
	for d := range want {
		if got[int64(d)] != want[d] {
			t.Errorf("dim %d: sum %v, want %v", d, got[int64(d)], want[d])
		}
	}
	// Input-record accounting must count points.
	if n := res.Counters.Get(CounterMapInputRecords); n != 100 {
		t.Errorf("map input records = %d, want 100", n)
	}
}

func TestPointMapperValidation(t *testing.T) {
	fs := dfs.New(0)
	fs.Create("/pts", []byte("1 2\n"))

	noDim := pointPathJob(fs, 0)
	if _, err := noDim.Run(); err == nil {
		t.Error("PointDim=0 accepted with NewPointMapper")
	}

	badDim := pointPathJob(fs, 3) // records have 2 coordinates
	if _, err := badDim.Run(); err == nil {
		t.Error("dimension mismatch did not fail the job")
	}
}

func dfsFormat(x, y float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64) + " " + strconv.FormatFloat(y, 'g', -1, 64) + "\n"
}

// countingSumMapper is sumPointMapper that also counts its MapColumns
// calls, so the dispatch test can assert how the engine drove it.
type countingSumMapper struct {
	sumPointMapper
	calls *callCount // shared across tasks, mutated under its mutex
}

type callCount struct {
	mu sync.Mutex
	n  int
}

func (m *countingSumMapper) MapColumns(ctx *TaskContext, cols *dfs.ColumnarSplit, emit Emitter) error {
	m.calls.mu.Lock()
	m.calls.n++
	m.calls.mu.Unlock()
	return m.sumPointMapper.MapColumns(ctx, cols, emit)
}

// TestColumnarMapperDispatch: the engine must drive a PointMapper through
// MapColumns exactly once per split, and input-record accounting must
// still count points.
func TestColumnarMapperDispatch(t *testing.T) {
	fs := dfs.New(64) // several splits
	var b strings.Builder
	for i := 0; i < 100; i++ {
		b.WriteString(dfsFormat(float64(i), float64(2*i)))
	}
	fs.Create("/pts", []byte(b.String()))
	calls := &callCount{}
	job := pointPathJob(fs, 2)
	job.NewPointMapper = func() PointMapper { return &countingSumMapper{calls: calls} }

	splits, err := job.FS.Splits("/pts")
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if calls.n != len(splits) {
		t.Errorf("%d MapColumns calls, want one per split (%d)", calls.n, len(splits))
	}
	if n := res.Counters.Get(CounterMapInputRecords); n != 100 {
		t.Errorf("map input records = %d, want 100", n)
	}
}
