package mr

import (
	"context"
	"errors"
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

// TestCounterInterning covers the ID-based hot path of the counter system:
// interning is stable, ID and name APIs see the same cells, and a counter
// touched with a zero delta still reports (Hadoop counters exist from
// first touch).
func TestCounterInterning(t *testing.T) {
	idA := InternCounter("test.intern.a")
	if again := InternCounter("test.intern.a"); again != idA {
		t.Fatalf("interning not stable: %d vs %d", idA, again)
	}
	if name := CounterName(idA); name != "test.intern.a" {
		t.Fatalf("CounterName = %q", name)
	}
	if name := CounterName(-1); name != "" {
		t.Fatalf("CounterName(-1) = %q", name)
	}

	c := NewCounters()
	c.AddID(idA, 5)
	c.Add("test.intern.a", 2)
	if got := c.Get("test.intern.a"); got != 7 {
		t.Errorf("mixed ID/name adds = %d, want 7", got)
	}
	if got := c.GetID(idA); got != 7 {
		t.Errorf("GetID = %d, want 7", got)
	}

	// Zero-delta touch reports the counter.
	idB := InternCounter("test.intern.b")
	c.AddID(idB, 0)
	snap := c.Snapshot()
	if v, ok := snap["test.intern.b"]; !ok || v != 0 {
		t.Errorf("zero-touched counter missing from snapshot: %v", snap)
	}
	// Get of a never-touched counter neither reports nor invents it.
	_ = c.Get("test.intern.never")
	for _, name := range c.Names() {
		if name == "test.intern.never" {
			t.Error("Get materialized an untouched counter")
		}
	}
}

// TestTaskContextCountMatchesCounter: the buffered ID path must flush the
// same totals the name path does.
func TestTaskContextCountMatchesCounter(t *testing.T) {
	id := InternCounter("test.ctx.count")
	counters := NewCounters()
	ctx := &TaskContext{counters: counters}
	for i := 0; i < 100; i++ {
		ctx.Count(id, 2)
	}
	ctx.Counter("test.ctx.count", 1)
	if got := counters.Get("test.ctx.count"); got != 0 {
		t.Fatalf("counters visible before flush: %d", got)
	}
	ctx.flushCounters()
	if got := counters.Get("test.ctx.count"); got != 201 {
		t.Fatalf("flushed %d, want 201", got)
	}
}
