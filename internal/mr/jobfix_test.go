package mr

import (
	"context"
	"errors"
	"slices"
	"testing"

	"gmeansmr/internal/dfs"
)

// TestDatasetReadNotTickedForEmptyInput: an empty file yields no splits,
// so no map task ever scans it — it must not count as a dataset read.
func TestDatasetReadNotTickedForEmptyInput(t *testing.T) {
	fs := dfs.New(0)
	fs.Create("/empty", nil)
	fs.ResetCounters()

	res, err := wordCountJob(fs, "/empty").Run()
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
	job := wordCountJob(fs, "/in")
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
