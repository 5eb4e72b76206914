package mr

import (
	"fmt"
)

// Cluster describes the simulated Hadoop cluster a job runs on: how many
// nodes, how many map and reduce slots per node, and how much heap each
// task JVM gets. The engine enforces the slot counts with bounded worker
// pools, so a 12-node cluster genuinely runs three times as many
// concurrent tasks as a 4-node one — that is what produces the paper's
// Table 4 / Figure 5 node-scaling behaviour.
//
// The defaults mirror the paper's testbed: nodes with two quad-core Xeons
// running Hadoop 1.x typically configured with slots on the order of the
// core count and ~1 GB task heap.
type Cluster struct {
	// Nodes is the number of worker machines.
	Nodes int
	// MapSlotsPerNode is the number of concurrent map tasks per node.
	MapSlotsPerNode int
	// ReduceSlotsPerNode is the number of concurrent reduce tasks per node.
	ReduceSlotsPerNode int
	// TaskHeapBytes is the JVM heap available to a single task. Tasks that
	// reserve more than this fail with ErrHeapSpace, the engine's
	// equivalent of java.lang.OutOfMemoryError("Java heap space").
	TaskHeapBytes int64
	// MaxHeapUsage is the fraction of TaskHeapBytes the *scheduler* is
	// willing to plan for; the paper uses 0.66 to keep the JVM out of
	// GC-thrash territory. It does not limit what a task may actually
	// reserve; PlannableHeap reports the planned share.
	MaxHeapUsage float64
}

// DefaultCluster returns the 4-node configuration the paper's primary
// experiments use.
func DefaultCluster() Cluster {
	return Cluster{
		Nodes:              4,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 2,
		TaskHeapBytes:      512 << 20,
		MaxHeapUsage:       0.66,
	}
}

// Validate reports a configuration error, if any.
func (c Cluster) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("mr: cluster needs at least one node, got %d", c.Nodes)
	case c.MapSlotsPerNode <= 0:
		return fmt.Errorf("mr: cluster needs at least one map slot per node, got %d", c.MapSlotsPerNode)
	case c.ReduceSlotsPerNode <= 0:
		return fmt.Errorf("mr: cluster needs at least one reduce slot per node, got %d", c.ReduceSlotsPerNode)
	case c.TaskHeapBytes <= 0:
		return fmt.Errorf("mr: task heap must be positive, got %d", c.TaskHeapBytes)
	// Written as !(in range) rather than (out of range): NaN fails every
	// comparison, so `<= 0 || > 1` would wave a NaN MaxHeapUsage through.
	case !(c.MaxHeapUsage > 0 && c.MaxHeapUsage <= 1):
		return fmt.Errorf("mr: max heap usage must be a finite value in (0,1], got %g", c.MaxHeapUsage)
	}
	return nil
}

// MapCapacity is the total number of concurrent map tasks.
func (c Cluster) MapCapacity() int { return c.Nodes * c.MapSlotsPerNode }

// ReduceCapacity is the total number of concurrent reduce tasks.
func (c Cluster) ReduceCapacity() int { return c.Nodes * c.ReduceSlotsPerNode }

// PlannableHeap is the heap the scheduler budgets per task:
// TaskHeapBytes × MaxHeapUsage.
func (c Cluster) PlannableHeap() int64 {
	return int64(float64(c.TaskHeapBytes) * c.MaxHeapUsage)
}

// WithNodes returns a copy of the cluster resized to n nodes.
func (c Cluster) WithNodes(n int) Cluster {
	c.Nodes = n
	return c
}

// WithTaskHeap returns a copy of the cluster with the given per-task heap.
func (c Cluster) WithTaskHeap(bytes int64) Cluster {
	c.TaskHeapBytes = bytes
	return c
}
