package mr

import (
	"context"
	"sync"

	"gmeansmr/internal/dfs"
)

// JobSpec is the portable description of a job's user code: a registered
// kind name plus an opaque payload the kind's builder decodes into mapper
// and reducer factories (see internal/mrdist). The in-process
// LocalRunner never reads it — the factories on the Job itself are
// authoritative — but a distributed runner ships the spec to worker
// processes, which reconstruct the identical factories from it. A job
// without a spec can only run on backends that share the driver's address
// space.
type JobSpec struct {
	// Kind names the job's registered builder, e.g. "kmeans.assign".
	Kind string
	// Payload is the kind-specific parameter block (centers, seeds, ...)
	// in the GMWR encoding of docs/wire.md.
	Payload []byte
}

// ShuffleStore carries one job's map outputs from the map wave to the
// reduce wave. Job.Run treats it as opaque: the runner that created it is
// its only consumer, so the local runner holds the runs themselves
// (MemShuffle) while a distributed runner tracks only run *locations* and
// leaves the bytes on the workers that produced them, to be pulled by
// reduce tasks.
type ShuffleStore interface {
	// NumMapTasks reports how many map-task run slots exist per partition.
	NumMapTasks() int
}

// TaskRunner executes the two waves of a job. Job.Run owns everything
// deterministic about a job — split enumeration, read accounting, phase
// ordering, output concatenation — and delegates only task *placement* to
// the runner, so every backend inherits the engine's bit-for-bit output
// contract as long as it executes each task with ExecMapTask/ExecReduceTask
// and merges each task's counters exactly once.
type TaskRunner interface {
	// NewShuffle allocates the store the map wave fills and the reduce
	// wave drains.
	NewShuffle(numReducers, numMapTasks int) ShuffleStore
	// RunMapPhase executes one map task per split. Implementations must
	// observe ctx before launching queued tasks and return the first task
	// error (deterministic task failures fail the job, as in Hadoop).
	// Job.Run always passes DefaultPartitioner as partition.
	RunMapPhase(ctx context.Context, j *Job, splits []dfs.Split, numReducers int, partition Partitioner, counters *Counters, shuffle ShuffleStore) error
	// RunReducePhase executes one reduce task per partition and returns
	// the per-partition outputs indexed by partition.
	RunReducePhase(ctx context.Context, j *Job, numReducers int, counters *Counters, shuffle ShuffleStore) ([][]KV, error)
}

// MemShuffle is the in-memory ShuffleStore of the local backend:
// runs[p][t] holds the key-sorted run produced for partition p
// by map task t. Slots are preallocated, so concurrent map tasks write
// disjoint elements without locking; readers synchronize via the map
// wave's completion.
type MemShuffle struct {
	runs [][][]KV
}

// NewMemShuffle allocates a store for numReducers × numMapTasks runs.
func NewMemShuffle(numReducers, numMapTasks int) *MemShuffle {
	runs := make([][][]KV, numReducers)
	for p := range runs {
		runs[p] = make([][]KV, numMapTasks)
	}
	return &MemShuffle{runs: runs}
}

// NumMapTasks implements ShuffleStore.
func (s *MemShuffle) NumMapTasks() int {
	if len(s.runs) == 0 {
		return 0
	}
	return len(s.runs[0])
}

// Put stores map task t's run for partition p.
func (s *MemShuffle) Put(t, p int, run []KV) { s.runs[p][t] = run }

// Runs returns partition p's runs indexed by map task id — the merge order
// that keeps the reduce phase deterministic.
func (s *MemShuffle) Runs(p int) [][]KV { return s.runs[p] }

// LocalRunner is the default TaskRunner: the in-process goroutine pools
// that simulate the cluster's map and reduce slots (Cluster.MapCapacity and
// ReduceCapacity bound the concurrency). It is the reference
// implementation every other backend must match bit for bit.
type LocalRunner struct{}

// NewShuffle implements TaskRunner.
func (LocalRunner) NewShuffle(numReducers, numMapTasks int) ShuffleStore {
	return NewMemShuffle(numReducers, numMapTasks)
}

// RunMapPhase executes one map task per split on a worker pool bounded by
// the cluster's map capacity (see runPool for cancellation).
func (LocalRunner) RunMapPhase(ctx context.Context, j *Job, splits []dfs.Split, numReducers int, partition Partitioner, counters *Counters, shuffle ShuffleStore) error {
	store := shuffle.(*MemShuffle)
	return runPool(ctx, j.Name, len(splits), j.Cluster.MapCapacity(), func(t int) error {
		ps, err := j.FS.OpenSplitPoints(splits[t], j.PointDim)
		if err != nil {
			return wrapTaskErr(j.Name, MapTask, t, err)
		}
		runs, err := j.ExecMapTask(t, ps, numReducers, partition, counters)
		if err != nil {
			return err
		}
		for p := range runs {
			store.Put(t, p, runs[p])
		}
		return nil
	})
}

// RunReducePhase executes one reduce task per partition on a worker pool
// bounded by the cluster's reduce capacity (see runPool for cancellation).
func (LocalRunner) RunReducePhase(ctx context.Context, j *Job, numReducers int, counters *Counters, shuffle ShuffleStore) ([][]KV, error) {
	store := shuffle.(*MemShuffle)
	outputs := make([][]KV, numReducers)
	err := runPool(ctx, j.Name, numReducers, j.Cluster.ReduceCapacity(), func(p int) error {
		out, err := j.ExecReduceTask(p, counters, store.Runs(p))
		outputs[p] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	return outputs, nil
}

// runPool runs task(0) … task(n-1) with at most width in flight and
// returns the first error. ctx is observed before every launch: tasks
// already running drain, queued tasks never start, and the error wraps
// ctx.Err(). After the first task error no further task starts either.
func runPool(ctx context.Context, job string, n, width int, task func(i int) error) error {
	sem := make(chan struct{}, width)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for i := 0; i < n && !failed(); i++ {
		select {
		case <-ctx.Done():
		case sem <- struct{}{}:
		}
		// Deterministic check after the wait: a select with both cases
		// ready picks one at random, so a slot freed after cancellation
		// could otherwise launch a queued task.
		if err := ctx.Err(); err != nil {
			fail(jobErr(job, err))
			break
		}
		wg.Add(1)
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			if failed() {
				return
			}
			if err := task(i); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}
