package mr

import "gmeansmr/internal/dfs"

// Emitter receives key/value pairs from mappers, combiners and reducers.
// Implementations are not safe for concurrent use; each task owns its own.
type Emitter interface {
	Emit(key int64, value Value)
}

// Reducer processes groups of values sharing a key. One fresh Reducer
// instance is created per reduce task. The same interface doubles as the
// combiner contract, as in Hadoop.
type Reducer interface {
	// Setup runs once before the first group of the task.
	Setup(ctx *TaskContext) error
	// Reduce processes one key group. The values slice is owned by the
	// engine and must not be retained after the call returns.
	Reduce(ctx *TaskContext, key int64, values []Value, emit Emitter) error
	// Close runs after the last group.
	Close(ctx *TaskContext, emit Emitter) error
}

// PointMapper processes the input split of one map task. The engine hands
// the task its whole split at once, decoded to float64 points from the DFS
// split cache (see dfs.OpenSplitPoints) and laid out dim-major
// (structure-of-arrays), so parsing happens at most once per (file, split)
// and per-split work — nearest-center assignment above all — runs as one
// batched kernel call (vec.NearestBatch) instead of a per-point loop. The
// cols view is read-only and shared with the decode cache: mappers must
// not modify it, but may retain it or its row views (cols.At) — e.g.
// inside emitted values — since the backing arrays are immutable.
//
// One fresh instance is created per map task (via the job's
// PointMapperFactory), so instances may keep per-task state — the PCA
// candidate job depends on this to accumulate per-cluster statistics in
// the mapper and flush them in Close, exactly like Hadoop's
// Mapper.cleanup.
type PointMapper interface {
	// Setup runs once before the task's split.
	Setup(ctx *TaskContext) error
	// MapColumns processes every point of the split in one call.
	MapColumns(ctx *TaskContext, cols *dfs.ColumnarSplit, emit Emitter) error
	// Close runs after MapColumns and may emit trailing pairs — in-mapper
	// combining mappers emit their accumulators here.
	Close(ctx *TaskContext, emit Emitter) error
}

// PointMapperFactory builds one PointMapper per map task.
type PointMapperFactory func() PointMapper

// ReducerFactory builds one Reducer per reduce (or combine) task.
type ReducerFactory func() Reducer

// Partitioner routes a key to one of numReducers partitions.
type Partitioner func(key int64, numReducers int) int

// DefaultPartitioner is Hadoop's HashPartitioner specialized to int64 keys:
// the key modulo the reducer count, folded to a non-negative index.
func DefaultPartitioner(key int64, numReducers int) int {
	p := int(key % int64(numReducers))
	if p < 0 {
		p += numReducers
	}
	return p
}

// ReducerFunc adapts a plain function to the Reducer interface.
type ReducerFunc func(ctx *TaskContext, key int64, values []Value, emit Emitter) error

// Setup implements Reducer.
func (ReducerFunc) Setup(*TaskContext) error { return nil }

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(ctx *TaskContext, key int64, values []Value, emit Emitter) error {
	return f(ctx, key, values, emit)
}

// Close implements Reducer.
func (ReducerFunc) Close(*TaskContext, Emitter) error { return nil }
