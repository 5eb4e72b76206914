package mr

import (
	"sort"
	"testing"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/obs"
)

// TestJobTraceSpans pins the span shape a traced job records: one job
// span carrying the merged counters, one "map" and one "reduce" engine
// phase, and batch-level task spans (map-task, spill, shuffle-merge,
// reduce-task) — never anything per record.
func TestJobTraceSpans(t *testing.T) {
	fs := dfs.New(16)
	writeTokens(fs, "/in", []int{1, 2, 3, 1, 2, 1, 7, 7, 7, 7})
	job := wordCountJob(fs, "/in")
	tr := obs.NewTrace()
	job.Trace = tr

	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}

	byName := make(map[string][]obs.SpanEvent)
	for _, ev := range tr.Events() {
		byName[ev.Name] = append(byName[ev.Name], ev)
	}
	for name, wantCount := range map[string]int{
		"job:wordcount": 1,
		"map":           1,
		"reduce":        1,
		"map-task":      res.MapTasks,
		"spill":         res.MapTasks,
		"shuffle-merge": res.ReduceTasks,
		"reduce-task":   res.ReduceTasks,
	} {
		if got := len(byName[name]); got != wantCount {
			t.Errorf("span %q count = %d, want %d", name, got, wantCount)
		}
	}

	job2 := byName["job:wordcount"][0]
	if job2.Cat != "job" {
		t.Errorf("job span cat = %q, want job", job2.Cat)
	}
	// The job span carries every merged counter.
	for _, cv := range res.Counters.Sorted() {
		if _, ok := job2.Args[cv.Name]; !ok {
			t.Errorf("job span missing counter arg %q", cv.Name)
		}
	}
	// Map tasks report records and byte throughput inputs.
	for _, ev := range byName["map-task"] {
		if ev.Cat != "task" {
			t.Errorf("map-task cat = %q, want task", ev.Cat)
		}
		for _, key := range []string{"records", "out_records", "out_bytes"} {
			if _, ok := ev.Args[key]; !ok {
				t.Errorf("map-task span missing arg %q", key)
			}
		}
	}
	for _, ev := range byName["reduce-task"] {
		for _, key := range []string{"groups", "records", "out_records"} {
			if _, ok := ev.Args[key]; !ok {
				t.Errorf("reduce-task span missing arg %q", key)
			}
		}
	}

	// The same job without a trace records nothing and still works.
	job3 := wordCountJob(fs, "/in")
	if _, err := job3.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCountersSorted pins the single-sort-site contract: Sorted returns
// name-ordered pairs.
func TestCountersSorted(t *testing.T) {
	c := NewCounters()
	c.Add("z.last", 3)
	c.Add("a.first", 1)
	c.Add("m.middle", 0) // touched with zero delta still reports

	sorted := c.Sorted()
	if len(sorted) != 3 {
		t.Fatalf("Sorted returned %d entries, want 3", len(sorted))
	}
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name }) {
		t.Errorf("Sorted is not name-ordered: %v", sorted)
	}
	if sorted[0].Name != "a.first" || sorted[0].Value != 1 {
		t.Errorf("sorted[0] = %+v", sorted[0])
	}
}
