// Package mr is an in-process MapReduce engine modeled on Hadoop 1.x, the
// execution substrate of the reproduced paper. It provides:
//
//   - jobs composed of a mapper, a partitioner and a reducer, fed by the
//     splits of one simulated DFS file (package dfs);
//   - a sort-based shuffle with byte accounting, so shuffle volume — a
//     first-class cost in the paper's analysis — is measurable;
//   - a simulated cluster: N nodes × map/reduce slots, enforced by bounded
//     worker pools, so node-scaling experiments (paper Table 4 / Fig. 5)
//     exercise real parallelism;
//   - counters, the standard Hadoop mechanism jobs use to ship small
//     aggregates (cluster sizes, test decisions) back to the driver.
//
// Keys are int64, exactly as in the paper ("the type of center id is a Java
// Long"), which is what makes the OFFSET = 2^62 keying trick of
// KMeansAndFindNewCenters representable.
//
// # Contract
//
// Input contract. A job's input file is a point file in the DFS text
// record format, and every map task reads its split one way:
// NewPointMapper's mapper receives the split once, whole, as decoded
// float64 points in dim-major form (dfs.OpenSplitPoints, then Columns,
// then PointMapper.MapColumns), served from the DFS split cache so
// parsing happens at most once per (file, split) — the layer the batched
// vec kernels plug into.
//
// Counters. Counters are keyed by name. A task ticks them through
// TaskContext.Count once per task, partition or reduce group, never per
// record; the ticks are buffered per task and merged into the job's
// counters once, when the task completes.
//
// Determinism. For a fixed input layout and job configuration, output is
// byte-for-byte deterministic regardless of goroutine scheduling: map
// runs are stable-sorted by key per task, the reduce merge breaks key
// ties by map-task id, and reducer output concatenates in partition
// order. Nothing in the engine may trade this away — the node-scaling
// experiments and every equivalence pin in the repository rely on it.
package mr

import "gmeansmr/internal/vec"

// Value is the payload type flowing through the shuffle. ByteSize reports
// the serialized size under the engine's wire model and drives the
// shuffle-volume counters; it should approximate what a Hadoop Writable
// would occupy.
type Value interface {
	ByteSize() int
}

// KV is one key/value pair.
type KV struct {
	Key   int64
	Value Value
}

// Float64Value wraps a double, e.g. a point's scalar projection.
type Float64Value float64

// ByteSize is 8 bytes, the size of an IEEE 754 double on the wire.
func (Float64Value) ByteSize() int { return 8 }

// Int64Value wraps a long, e.g. a count.
type Int64Value int64

// ByteSize is 8 bytes, the size of a long on the wire.
func (Int64Value) ByteSize() int { return 8 }

// BoolValue wraps a boolean decision, e.g. "this cluster looks Gaussian".
type BoolValue bool

// ByteSize is 1 byte.
func (BoolValue) ByteSize() int { return 1 }

// PointValue carries raw point coordinates, e.g. a candidate center.
type PointValue struct {
	Coords vec.Vector
}

// ByteSize is 8 bytes per coordinate.
func (p PointValue) ByteSize() int { return 8 * len(p.Coords) }

// WeightedPointValue carries a partial centroid sum: coordinates plus a
// count, the payload of the paper's Algorithm 2 ("coordinates (float[]),
// 1 (int)"), here summed over a map task's points before it is emitted.
type WeightedPointValue struct {
	vec.WeightedPoint
}

// ADDecisionValue carries one Anderson–Darling outcome: the corrected
// statistic, the sample size it was computed on and the verdict.
type ADDecisionValue struct {
	A2Star float64
	N      int64
	Normal bool
}

// ByteSize is two longs and a byte.
func (ADDecisionValue) ByteSize() int { return 17 }
