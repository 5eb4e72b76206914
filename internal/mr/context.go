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

// TaskContext is handed to every mapper and reducer callback. It
// carries task identity and the job's counters.
type TaskContext struct {
	JobName string
	Kind    TaskKind
	TaskID  int

	counters *Counters
	// local buffers counter increments for the lifetime of the task and is
	// flushed into the shared job counters once, when the task completes:
	// a failed attempt publishes nothing, so a retried task counts once.
	local map[string]int64
}

// Count increments the named job counter by delta. Increments become
// visible in the job's merged counters when the task finishes, matching
// Hadoop's counter semantics (task counters are reported on completion).
func (c *TaskContext) Count(name string, delta int64) {
	if c.local == nil {
		c.local = make(map[string]int64)
	}
	c.local[name] += delta
}

// flushCounters publishes the task's buffered counters to the job.
func (c *TaskContext) flushCounters() {
	for name, v := range c.local {
		c.counters.Add(name, v)
	}
	c.local = nil
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
