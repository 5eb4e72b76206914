package mr

import (
	"fmt"
)

// TaskKind distinguishes map from reduce tasks in contexts and errors.
type TaskKind string

// Task kinds.
const (
	MapTask    TaskKind = "map"
	ReduceTask TaskKind = "reduce"
)

// TaskContext is handed to every mapper/combiner/reducer callback. It
// carries task identity and the job's counters.
type TaskContext struct {
	JobName string
	Kind    TaskKind
	TaskID  int

	counters *Counters
	// local buffers counter increments for the lifetime of the task and is
	// flushed into the shared job counters once, when the task completes —
	// mappers call Count per record, and a shared mutex there would
	// serialize the whole map wave. The buffer is a slice indexed by
	// interned CounterID: a per-record tick is two bounds checks and an
	// add, no string hashing (see InternCounter).
	local        []int64
	localTouched []bool
}

// Count increments the job counter interned as id by delta. Increments
// become visible in the job's merged counters when the task finishes,
// matching Hadoop's counter semantics (task counters are reported on
// completion). This is the hot-path form; Counter accepts a name.
func (c *TaskContext) Count(id CounterID, delta int64) {
	if id < 0 {
		return
	}
	if int(id) >= len(c.local) {
		local := make([]int64, id+8)
		copy(local, c.local)
		c.local = local
		touched := make([]bool, id+8)
		copy(touched, c.localTouched)
		c.localTouched = touched
	}
	c.local[id] += delta
	c.localTouched[id] = true
}

// Counter increments the named job counter by delta. Call sites on per-
// record paths should intern the name once and use Count instead.
func (c *TaskContext) Counter(name string, delta int64) {
	c.Count(InternCounter(name), delta)
}

// flushCounters publishes the task's buffered counters to the job.
func (c *TaskContext) flushCounters() {
	for id, v := range c.local {
		if c.localTouched[id] {
			c.counters.AddID(CounterID(id), v)
		}
	}
	c.local, c.localTouched = nil, nil
}

// TaskError wraps a failure of a specific task with its identity.
type TaskError struct {
	Job    string
	Kind   TaskKind
	TaskID int
	Err    error
}

// Error implements error.
func (e *TaskError) Error() string {
	return fmt.Sprintf("mr: job %q %s task %d: %v", e.Job, e.Kind, e.TaskID, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *TaskError) Unwrap() error { return e.Err }
