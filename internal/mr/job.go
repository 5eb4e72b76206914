package mr

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/obs"
)

// byKey orders KV pairs by key for the engine's sort sites. Stable sorts
// with this comparator preserve emission order within a key, which is what
// makes the shuffle deterministic.
func byKey(a, b KV) int { return cmp.Compare(a.Key, b.Key) }

// Job describes one MapReduce job: where the input lives, how to map and
// reduce it, and which cluster executes it. Keys are routed by
// Hadoop's hash partitioner (DefaultPartitioner); a zero NumReducers
// selects the cluster's reduce capacity.
type Job struct {
	Name    string
	FS      *dfs.FS
	Cluster Cluster

	// Input is the DFS path to read. The file is divided into splits; one
	// map task runs per split.
	Input string

	// NewPointMapper builds each map task's mapper, which receives its
	// split whole, as decoded dim-major columns served from the DFS
	// decode cache.
	NewPointMapper PointMapperFactory
	// PointDim is the point dimensionality of the input file: every
	// record must decode to exactly PointDim coordinates.
	PointDim   int
	NewReducer ReducerFactory

	// NumReducers is the number of reduce tasks (= output partitions).
	// Zero selects the cluster's total reduce capacity, the common Hadoop
	// practice the paper assumes when it says the reduce-phase parallelism
	// of TestClusters "is bounded by k".
	NumReducers int

	// Ctx, when non-nil, lets callers cancel the job or bound it with a
	// deadline. The scheduler checks it before launching every task, so a
	// cancelled job aborts after the tasks already in flight drain — no
	// goroutines outlive Run. Nil means context.Background().
	Ctx context.Context

	// Trace, when non-nil, records per-phase and per-task spans for the
	// job: "map"/"reduce" engine phases, and "map-task", "spill",
	// "shuffle-merge", "reduce-task" spans keyed by task id. Spans are
	// batch-level only — one per task or phase, never per record — so a
	// nil Trace costs one pointer test and an enabled one stays off the
	// record hot path.
	Trace *obs.Trace

	// Runner selects the execution backend. Nil selects LocalRunner, the
	// in-process goroutine pools. Distributed runners additionally require
	// Spec so workers can reconstruct the job's user code.
	Runner TaskRunner

	// Spec is the portable description of the job's mapper and reducer
	// for backends that execute tasks in other processes. Optional; the
	// local backend ignores it.
	Spec *JobSpec
}

// Result is the outcome of a successful job.
type Result struct {
	// Output contains every pair emitted by reducers, ordered by partition
	// then by emission order within the reduce task. For key-ordered access
	// use SortedOutput.
	Output []KV
	// Counters holds the merged engine and job counters.
	Counters *Counters
	// MapTasks and ReduceTasks record the task counts that ran.
	MapTasks    int
	ReduceTasks int
	// Duration is the wall-clock time of the whole job.
	Duration time.Duration
}

// SortedOutput returns the output pairs sorted by key (stable).
func (r *Result) SortedOutput() []KV {
	out := make([]KV, len(r.Output))
	copy(out, r.Output)
	slices.SortStableFunc(out, byKey)
	return out
}

type emitter struct {
	buf []KV
}

func (e *emitter) Emit(key int64, value Value) {
	e.buf = append(e.buf, KV{Key: key, Value: value})
}

// Run executes the job to completion and returns its result, or the first
// task error encountered. A failing task fails the job, matching Hadoop's
// behaviour for deterministic task errors. When j.Ctx is cancelled the job
// stops scheduling tasks and returns an error wrapping ctx.Err().
func (j *Job) Run() (*Result, error) {
	if err := j.validate(); err != nil {
		return nil, err
	}
	ctx := j.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	numReducers := j.NumReducers
	if numReducers <= 0 {
		numReducers = j.Cluster.ReduceCapacity()
	}

	start := time.Now()
	counters := NewCounters()

	splits, err := j.FS.Splits(j.Input)
	if err != nil {
		return nil, fmt.Errorf("mr: job %q: %w", j.Name, err)
	}
	// Each job scans its input exactly once across its map wave; this is
	// the paper's "dataset read" cost unit. An empty file yields no splits
	// and therefore no scan, and a job cancelled before its map wave
	// starts never reads anything — neither may tick the counter, or
	// chained-job read totals drift from the paper's model.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mr: job %q: %w", j.Name, err)
	}
	if len(splits) > 0 {
		j.FS.CountDatasetRead()
	}

	runner := j.Runner
	if runner == nil {
		runner = LocalRunner{}
	}
	// The runner owns the shuffle representation: in-memory runs for the
	// local backend, run locations for distributed ones. shuffle[p][t] is
	// always the key-sorted run produced for partition p by map task t;
	// indexing by task id keeps the merge order deterministic regardless
	// of scheduling or placement.
	shuffle := runner.NewShuffle(numReducers, len(splits))

	jobSpan := j.Trace.StartSpan("job:"+j.Name, "job").
		SetArg("map_tasks", len(splits)).
		SetArg("reduce_tasks", numReducers)

	mapSpan := j.Trace.StartSpan("map", "mr")
	err = runner.RunMapPhase(ctx, j, splits, numReducers, DefaultPartitioner, counters, shuffle)
	mapSpan.End()
	if err != nil {
		return nil, err
	}

	reduceSpan := j.Trace.StartSpan("reduce", "mr")
	outputs, err := runner.RunReducePhase(ctx, j, numReducers, counters, shuffle)
	reduceSpan.End()
	if err != nil {
		return nil, err
	}
	var output []KV
	for _, out := range outputs {
		output = append(output, out...)
	}

	// Attach the merged job counters to the job span so a trace is
	// self-describing: phase wall time next to the work volumes that
	// explain it.
	for _, cv := range counters.Sorted() {
		jobSpan.SetArg(cv.Name, cv.Value)
	}
	jobSpan.End()

	return &Result{
		Output:      output,
		Counters:    counters,
		MapTasks:    len(splits),
		ReduceTasks: numReducers,
		Duration:    time.Since(start),
	}, nil
}

func (j *Job) validate() error {
	switch {
	case j.FS == nil:
		return fmt.Errorf("mr: job %q: nil FS", j.Name)
	case j.Input == "":
		return fmt.Errorf("mr: job %q: no input", j.Name)
	case j.NewPointMapper == nil:
		return fmt.Errorf("mr: job %q: nil mapper factory", j.Name)
	case j.PointDim <= 0:
		return fmt.Errorf("mr: job %q: NewPointMapper requires a positive PointDim, got %d", j.Name, j.PointDim)
	case j.NewReducer == nil:
		return fmt.Errorf("mr: job %q: nil reducer factory", j.Name)
	}
	return j.Cluster.Validate()
}

// jobErr wraps a phase-level error with the job name.
func jobErr(name string, err error) error {
	return fmt.Errorf("mr: job %q: %w", name, err)
}

// ExecMapTask maps one opened split and returns the per-partition,
// key-sorted runs. It is the unit of work every backend executes — the
// local runner calls it on the split it opened with OpenSplitPoints, a
// distributed worker on the split's points the master shipped to it —
// and it is deterministic: the same points, job
// parameters and task id produce byte-identical runs and counter deltas
// wherever it runs.
// Counter deltas are buffered per task and flushed into counters once at
// completion, so callers that re-execute a task (retry, speculation) must
// merge at most one completion's counters.
func (j *Job) ExecMapTask(taskID int, ps *dfs.PointSplit, numReducers int, partition Partitioner, counters *Counters) ([][]KV, error) {
	ctx := &TaskContext{
		JobName:  j.Name,
		Kind:     MapTask,
		TaskID:   taskID,
		counters: counters,
	}
	em := &emitter{}
	taskSpan := j.Trace.StartSpan("map-task", "task").SetTID(int64(taskID))
	records, err := j.mapSplit(ctx, ps, em)
	if err != nil {
		taskSpan.End()
		return nil, wrapTaskErr(j.Name, MapTask, taskID, err)
	}

	var outBytes int64
	for _, kv := range em.buf {
		outBytes += int64(kv.Value.ByteSize()) + 8
	}
	taskSpan.SetArg("records", records).
		SetArg("out_records", int64(len(em.buf))).
		SetArg("out_bytes", outBytes).
		End()
	ctx.Count(CounterMapInputRecords, records)
	ctx.Count(CounterMapOutputRecords, int64(len(em.buf)))
	ctx.Count(CounterMapOutputBytes, outBytes)

	// Partition and stable-sort, as Hadoop does on spill. There is no
	// combine step: the jobs combine inside their mappers.
	spillSpan := j.Trace.StartSpan("spill", "task").SetTID(int64(taskID))
	parts := make([][]KV, numReducers)
	for _, kv := range em.buf {
		p := partition(kv.Key, numReducers)
		parts[p] = append(parts[p], kv)
	}
	for p := range parts {
		slices.SortStableFunc(parts[p], byKey)
	}
	// Every map output record is shuffled.
	spillSpan.SetArg("records", int64(len(em.buf))).SetArg("bytes", outBytes).End()
	ctx.Count(CounterShuffleRecords, int64(len(em.buf)))
	ctx.Count(CounterShuffleBytes, outBytes)
	ctx.flushCounters()
	return parts, nil
}

// mapSplit feeds one split's columns through a fresh mapper instance and
// returns the input record count.
func (j *Job) mapSplit(ctx *TaskContext, ps *dfs.PointSplit, em Emitter) (int64, error) {
	mapper := j.NewPointMapper()
	if err := mapper.Setup(ctx); err != nil {
		return 0, err
	}
	// The whole split in one call, against the dim-major view
	// materialized once per cached decode.
	if err := mapper.MapColumns(ctx, ps.Columns(), em); err != nil {
		return 0, err
	}
	return int64(ps.Len()), mapper.Close(ctx, em)
}

// ExecReduceTask merges the runs of one partition, groups by key, and feeds
// the groups to a fresh reducer instance. Like ExecMapTask it is the
// backend-independent unit of work: runs must be indexed by map-task id
// (the deterministic merge tie-break order), and counter deltas flush once
// at completion.
func (j *Job) ExecReduceTask(p int, counters *Counters, runs [][]KV) ([]KV, error) {
	ctx := &TaskContext{
		JobName:  j.Name,
		Kind:     ReduceTask,
		TaskID:   p,
		counters: counters,
	}
	// Merge the per-task key-sorted runs with a k-way heap merge — Hadoop's
	// merge phase proper, O(n log r) instead of re-sorting the
	// concatenation. Key ties break by map-task id, so the output order is
	// byte-for-byte what concatenate + stable sort produced (pinned by
	// TestMergeRunsMatchesConcatSort).
	mergeSpan := j.Trace.StartSpan("shuffle-merge", "task").SetTID(int64(p))
	merged := MergeRuns(runs)
	mergeSpan.SetArg("records", int64(len(merged))).End()

	taskSpan := j.Trace.StartSpan("reduce-task", "task").SetTID(int64(p))
	reducer := j.NewReducer()
	if err := reducer.Setup(ctx); err != nil {
		taskSpan.End()
		return nil, wrapTaskErr(j.Name, ReduceTask, p, err)
	}
	out := &emitter{}
	i := 0
	var groups, records int64
	for i < len(merged) {
		k := merged[i].Key
		jdx := i
		for jdx < len(merged) && merged[jdx].Key == k {
			jdx++
		}
		values := make([]Value, 0, jdx-i)
		for _, kv := range merged[i:jdx] {
			values = append(values, kv.Value)
		}
		groups++
		records += int64(len(values))
		if err := reducer.Reduce(ctx, k, values, out); err != nil {
			taskSpan.End()
			return nil, wrapTaskErr(j.Name, ReduceTask, p, err)
		}
		i = jdx
	}
	if err := reducer.Close(ctx, out); err != nil {
		taskSpan.End()
		return nil, wrapTaskErr(j.Name, ReduceTask, p, err)
	}
	taskSpan.SetArg("groups", groups).
		SetArg("records", records).
		SetArg("out_records", int64(len(out.buf))).
		End()
	ctx.Count(CounterReduceInputGroups, groups)
	ctx.Count(CounterReduceInputRecords, records)
	ctx.Count(CounterReduceOutput, int64(len(out.buf)))
	ctx.flushCounters()
	return out.buf, nil
}

func wrapTaskErr(job string, kind TaskKind, taskID int, err error) error {
	if te, ok := err.(*TaskError); ok {
		return te
	}
	return &TaskError{Job: job, Kind: kind, TaskID: taskID, Err: err}
}
