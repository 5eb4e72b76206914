package mr

import (
	"maps"
	"slices"
	"strings"
	"sync"
)

// Standard counter names maintained by the engine itself. Jobs add their
// own domain counters (e.g. distance computations) under their own names.
const (
	CounterMapInputRecords    = "mr.map.input.records"
	CounterMapOutputRecords   = "mr.map.output.records"
	CounterMapOutputBytes     = "mr.map.output.bytes"
	CounterShuffleBytes       = "mr.shuffle.bytes"
	CounterShuffleRecords     = "mr.shuffle.records"
	CounterReduceInputGroups  = "mr.reduce.input.groups"
	CounterReduceInputRecords = "mr.reduce.input.records"
	CounterReduceOutput       = "mr.reduce.output.records"
)

// The combine counters are no longer ticked: the engine has no combine
// stage, since the jobs combine inside their mappers. The names stay
// because cmd/perfledger still reads them for its mr.combine_ratio.
const (
	CounterCombineInput  = "mr.combine.input.records"
	CounterCombineOutput = "mr.combine.output.records"
)

// Counters is a concurrency-safe counter set, the equivalent of Hadoop job
// counters, keyed by name. Tasks increment; the driver reads the merged
// totals after the job completes. A counter is reported (Snapshot, Sorted)
// once it has been added to, even with a zero delta — matching Hadoop,
// where a counter exists from first touch.
type Counters struct {
	mu   sync.Mutex
	vals map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{vals: make(map[string]int64)} }

// Add increments the named counter by delta.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.vals[name] += delta
	c.mu.Unlock()
}

// Get returns the current value of the named counter (0 when absent).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals[name]
}

// Snapshot returns a copy of all counters that have been added to.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.vals)
}

// MergeInto adds every counter of c into dst. Used by drivers that
// aggregate counters across the chained jobs of one algorithm run.
func (c *Counters) MergeInto(dst *Counters) {
	for name, v := range c.Snapshot() {
		dst.Add(name, v)
	}
}

// CounterValue is one (name, value) pair of a sorted counter snapshot.
type CounterValue struct {
	Name  string
	Value int64
}

// Sorted returns every counter added to, sorted by name. This is the one
// place counter ordering is decided: every reporting call site derives
// from it rather than re-sorting its own view.
func (c *Counters) Sorted() []CounterValue {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CounterValue, 0, len(c.vals))
	for name, v := range c.vals {
		out = append(out, CounterValue{Name: name, Value: v})
	}
	slices.SortFunc(out, func(a, b CounterValue) int { return strings.Compare(a.Name, b.Name) })
	return out
}
