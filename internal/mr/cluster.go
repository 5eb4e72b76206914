package mr

import (
	"fmt"
)

// Cluster describes the simulated Hadoop cluster a job runs on: how many
// nodes, and how many map and reduce slots per node. The engine enforces
// the slot counts with bounded worker pools, so a 12-node cluster
// genuinely runs three times as many concurrent tasks as a 4-node one —
// that is what produces the paper's Table 4 / Figure 5 node-scaling
// behaviour.
//
// The defaults mirror the paper's testbed: nodes with two quad-core Xeons
// running Hadoop 1.x, typically configured with slots on the order of the
// core count.
type Cluster struct {
	// Nodes is the number of worker machines.
	Nodes int
	// MapSlotsPerNode is the number of concurrent map tasks per node.
	MapSlotsPerNode int
	// ReduceSlotsPerNode is the number of concurrent reduce tasks per node.
	ReduceSlotsPerNode int
}

// DefaultCluster returns the 4-node configuration the paper's primary
// experiments use.
func DefaultCluster() Cluster {
	return Cluster{
		Nodes:              4,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 2,
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
	}
	return nil
}

// MapCapacity is the total number of concurrent map tasks.
func (c Cluster) MapCapacity() int { return c.Nodes * c.MapSlotsPerNode }

// ReduceCapacity is the total number of concurrent reduce tasks.
func (c Cluster) ReduceCapacity() int { return c.Nodes * c.ReduceSlotsPerNode }

// WithNodes returns a copy of the cluster resized to n nodes.
func (c Cluster) WithNodes(n int) Cluster {
	c.Nodes = n
	return c
}
