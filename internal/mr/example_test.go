package mr_test

import (
	"fmt"
	"log"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/mr"
)

// keyValueMapper reads 2-dim points as (key, value) pairs: the engine
// hands each map task its split as decoded columns, one per coordinate.
type keyValueMapper struct{}

func (keyValueMapper) Setup(*mr.TaskContext) error { return nil }

func (keyValueMapper) MapColumns(_ *mr.TaskContext, cols *dfs.ColumnarSplit, emit mr.Emitter) error {
	keys, vals := cols.Col(0), cols.Col(1)
	for i := range keys {
		emit.Emit(int64(keys[i]), mr.Int64Value(vals[i]))
	}
	return nil
}

func (keyValueMapper) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// ExampleJob_Run runs the classic first MapReduce job — sum values per
// key — on the simulated cluster: one map task per DFS split and a
// sort-shuffled reduce.
func ExampleJob_Run() {
	fs := dfs.New(16) // tiny splits: several map tasks even for this input
	fs.Create("/in", []byte("1 10\n2 20\n1 5\n2 2\n1 1\n"))

	sum := mr.ReducerFunc(func(_ *mr.TaskContext, key int64, values []mr.Value, emit mr.Emitter) error {
		var s int64
		for _, v := range values {
			s += int64(v.(mr.Int64Value))
		}
		emit.Emit(key, mr.Int64Value(s))
		return nil
	})
	job := &mr.Job{
		Name:           "sum-per-key",
		FS:             fs,
		Cluster:        mr.Cluster{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1},
		Input:          "/in",
		PointDim:       2,
		NewPointMapper: func() mr.PointMapper { return keyValueMapper{} },
		NewReducer:     func() mr.Reducer { return sum },
	}
	res, err := job.Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, kv := range res.SortedOutput() {
		fmt.Printf("key %d → %d\n", kv.Key, kv.Value.(mr.Int64Value))
	}
	fmt.Printf("map tasks=%d dataset reads=%d\n", res.MapTasks, fs.DatasetReads())
	// Output:
	// key 1 → 16
	// key 2 → 22
	// map tasks=2 dataset reads=1
}
