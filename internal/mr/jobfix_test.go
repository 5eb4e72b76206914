package mr

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"gmeansmr/internal/dfs"
)

// TestDatasetReadNotTickedForEmptyInput: an empty file yields no splits,
// so no map task ever scans it — it must not count as a dataset read.
func TestDatasetReadNotTickedForEmptyInput(t *testing.T) {
	fs := dfs.New(0)
	writeTokens(fs, "/data", []int{1, 2, 3})
	fs.Create("/empty", nil)
	fs.ResetCounters()

	job := wordCountJob(fs, "/data", false)
	job.Input = []string{"/empty", "/data"}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.DatasetReads(); got != 1 {
		t.Errorf("DatasetReads = %d, want 1 (only the non-empty input is scanned)", got)
	}
	if got := countsFromResult(res); got[1] != 1 || got[2] != 1 || got[3] != 1 {
		t.Errorf("output = %v", got)
	}

	// A job whose only input is empty scans nothing at all.
	fs.ResetCounters()
	onlyEmpty := wordCountJob(fs, "/empty", false)
	res, err = onlyEmpty.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.DatasetReads(); got != 0 {
		t.Errorf("DatasetReads = %d, want 0 for an empty-only job", got)
	}
	if len(res.Output) != 0 || res.MapTasks != 0 {
		t.Errorf("empty-input job produced output=%v mapTasks=%d", res.Output, res.MapTasks)
	}
}

// TestDatasetReadNotTickedWhenCancelledBeforeWave: a job cancelled before
// its map wave starts never reads the dataset, so the paper's read counter
// must not move.
func TestDatasetReadNotTickedWhenCancelledBeforeWave(t *testing.T) {
	fs := dfs.New(0)
	writeTokens(fs, "/in", []int{1, 2, 3})
	fs.ResetCounters()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := wordCountJob(fs, "/in", false)
	job.Ctx = ctx
	_, err := job.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := fs.DatasetReads(); got != 0 {
		t.Errorf("DatasetReads = %d, want 0 for a run cancelled before the map wave", got)
	}
}

// TestCountersByName covers the name-keyed counter store: adds to one
// name accumulate, a counter touched with a zero delta still reports
// (Hadoop counters exist from first touch), Get of an untouched name does
// not invent it, and Sorted is name-ordered.
func TestCountersByName(t *testing.T) {
	c := NewCounters()
	c.Add("test.b", 5)
	c.Add("test.b", 2)
	if got := c.Get("test.b"); got != 7 {
		t.Errorf("Get after two adds = %d, want 7", got)
	}

	c.Add("test.a", 0)
	if v, ok := c.Snapshot()["test.a"]; !ok || v != 0 {
		t.Errorf("zero-touched counter missing from snapshot: %v", c.Snapshot())
	}

	if got := c.Get("test.never"); got != 0 {
		t.Errorf("Get of an untouched counter = %d, want 0", got)
	}
	want := []CounterValue{{Name: "test.a", Value: 0}, {Name: "test.b", Value: 7}}
	if got := c.Sorted(); !slices.Equal(got, want) {
		t.Errorf("Sorted = %v, want %v (Get must not list an untouched name)", got, want)
	}
}

// TestTaskContextCountBuffersUntilFlush: task ticks stay in the task's
// buffer, invisible to the job, until the task flushes them once.
func TestTaskContextCountBuffersUntilFlush(t *testing.T) {
	counters := NewCounters()
	ctx := &TaskContext{counters: counters}
	for i := 0; i < 100; i++ {
		ctx.Count("test.ctx.count", 2)
	}
	ctx.Count("test.ctx.zero", 0)
	if got := counters.Sorted(); len(got) != 0 {
		t.Fatalf("counters visible before flush: %v", got)
	}
	ctx.flushCounters()
	want := []CounterValue{{Name: "test.ctx.count", Value: 200}, {Name: "test.ctx.zero", Value: 0}}
	if got := counters.Sorted(); !slices.Equal(got, want) {
		t.Fatalf("flushed %v, want %v", got, want)
	}
}

// TestCombineCounters: the combiner's input counter equals the map output
// records it was fed, and its output counter equals what it emitted, with
// several keys per partition in every map task.
func TestCombineCounters(t *testing.T) {
	fs := dfs.New(16) // several map tasks
	writeTokens(fs, "/in", []int{1, 2, 3, 1, 2, 1, 7, 7, 7, 7, 4, 4, 5, 6, 6, 9})
	job := wordCountJob(fs, "/in", true)
	job.NumReducers = 2
	var runs, emits atomic.Int64
	job.NewCombiner = func() Reducer {
		runs.Add(1)
		return ReducerFunc(func(ctx *TaskContext, key int64, values []Value, emit Emitter) error {
			var sum int64
			for _, v := range values {
				sum += int64(v.(Int64Value))
			}
			emits.Add(1)
			emit.Emit(key, Int64Value(sum))
			return nil
		})
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	// One emit per key group, so more emits than runs means some run held
	// several keys.
	if res.MapTasks < 2 || emits.Load() <= runs.Load() {
		t.Fatalf("map tasks = %d, combiner runs = %d, key groups = %d; want several tasks and more groups than runs",
			res.MapTasks, runs.Load(), emits.Load())
	}
	c := res.Counters
	if in, out := c.Get(CounterCombineInput), c.Get(CounterMapOutputRecords); in != out || in != 16 {
		t.Errorf("combine input records = %d, map output records = %d, want both 16", in, out)
	}
	if got := c.Get(CounterCombineOutput); got != emits.Load() {
		t.Errorf("combine output records = %d, want the combiner's %d emits", got, emits.Load())
	}
	if got := c.Get(CounterShuffleRecords); got != emits.Load() {
		t.Errorf("shuffle records = %d, want the combiner's %d emits", got, emits.Load())
	}
}
