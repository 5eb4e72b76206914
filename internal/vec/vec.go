// Package vec provides the small dense-vector kernel used throughout the
// repository: Euclidean geometry in R^d over []float64, plus the projection
// primitive that G-means uses to reduce each cluster to one dimension, and
// the batched dim-major kernels (batch.go) that assign a whole split of
// points per call.
//
// All functions treat their inputs as read-only unless the doc comment says
// otherwise. Vectors of mismatching dimensionality cause a panic: dimension
// mismatches are programming errors, not runtime conditions, and every
// caller in this module constructs vectors of a single dimensionality per
// dataset.
//
// # Kernel bit-compatibility
//
// Floating-point addition is not associative, so kernel variants that
// reassociate sums return different low-order bits — and the repository's
// equivalence pins (cached vs legacy path, text vs binary, columnar vs
// row-major) demand exact ones. The rules:
//
//   - Dist2 is the reference: four accumulator lanes over dimensions
//     (lane d%4 in the unrolled body, lane 0 for the tail), combined as
//     (s0+s1)+(s2+s3).
//   - Every other distance path reproduces those bits exactly: the
//     early-exit scan (dist2Below) replicates the lane structure; the
//     batch kernel (NearestBatch) keeps one lane set per point,
//     vectorizing across points, and uses no fused multiply-add (FMA
//     rounds once where mul-then-add rounds twice). The vec tests pin
//     all of this.
//   - Nearest-center selection is strictly-closer-wins everywhere, so
//     ties resolve to the lowest center index on every path.
//   - Across releases: the 4-lane unroll landed in PR 3; results differ
//     in low-order bits from the older sequential kernel for dim ≥ 4.
//     Any future kernel (SIMD included) must either replicate the lane
//     structure or accept re-pinning every equivalence test.
package vec

import (
	"fmt"
	"math"
)

// Vector is a point (or direction) in R^d.
type Vector = []float64

// assertSameDim panics unless a and b have equal length.
func assertSameDim(a, b Vector) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch: %d vs %d", len(a), len(b)))
	}
}

// Clone returns a fresh copy of v.
func Clone(v Vector) Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// CloneAll deep-copies a slice of vectors.
func CloneAll(vs []Vector) []Vector {
	out := make([]Vector, len(vs))
	for i, v := range vs {
		out[i] = Clone(v)
	}
	return out
}

// Dot returns the inner product <a, b>.
func Dot(a, b Vector) float64 {
	assertSameDim(a, b)
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the squared Euclidean norm of v.
func Norm2(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Norm returns the Euclidean norm of v.
func Norm(v Vector) float64 { return math.Sqrt(Norm2(v)) }

// Dist2 returns the squared Euclidean distance between a and b.
//
// This is the inner loop of every k-means variant in the repository; it is
// deliberately branch-free and allocation-free, and unrolled over four
// independent accumulator lanes so the FP additions pipeline instead of
// serializing on one dependency chain. The lane sums combine as
// (s0+s1)+(s2+s3); dist2Partial below mirrors the exact same lane
// structure so early-exit scans stay bit-identical to the full
// computation. For dim < 4 the tail loop alone runs and the result is
// bit-identical to the classic sequential sum.
func Dist2(a, b Vector) float64 {
	assertSameDim(a, b)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b Vector) float64 { return math.Sqrt(Dist2(a, b)) }

// Add returns a+b as a new vector.
func Add(a, b Vector) Vector {
	assertSameDim(a, b)
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b Vector) {
	assertSameDim(a, b)
	for i := range a {
		a[i] += b[i]
	}
}

// Sub returns a-b as a new vector.
func Sub(a, b Vector) Vector {
	assertSameDim(a, b)
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Scale returns s*v as a new vector.
func Scale(v Vector, s float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] * s
	}
	return out
}

// ScaleInPlace multiplies v by s.
func ScaleInPlace(v Vector, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Mean returns the centroid of vs. It panics on an empty input because a
// centroid of nothing is undefined and callers guard against empty clusters.
func Mean(vs []Vector) Vector {
	if len(vs) == 0 {
		panic("vec: Mean of empty set")
	}
	out := make(Vector, len(vs[0]))
	for _, v := range vs {
		AddInPlace(out, v)
	}
	ScaleInPlace(out, 1/float64(len(vs)))
	return out
}

// Equal reports whether a and b are identical component-wise.
func Equal(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether a and b differ by at most eps in every
// component.
func ApproxEqual(a, b Vector, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > eps {
			return false
		}
	}
	return true
}

// Project returns the scalar projection of point p onto the direction d
// (not necessarily unit length), i.e. <p, d> / |d|.
//
// G-means projects every point of a cluster onto the vector joining the
// cluster's two candidate children; the resulting one-dimensional sample is
// what the Anderson–Darling test consumes. When d is the zero vector the
// projection is defined as 0 (the degenerate case of two identical candidate
// centers, which the driver treats as "nothing to split").
func Project(p, d Vector) float64 {
	assertSameDim(p, d)
	n := Norm(d)
	if n == 0 {
		return 0
	}
	return Dot(p, d) / n
}

// Axis is a projection direction with its norm computed once, for
// projecting many points onto the same d: Axis.Project(p) is
// bit-identical to Project(p, d), without recomputing |d| per point.
type Axis struct {
	d    Vector
	norm float64
}

// NewAxis returns the axis along d. It keeps d, which must not change
// while the axis is in use.
func NewAxis(d Vector) Axis { return Axis{d: d, norm: Norm(d)} }

// Project returns <p, d> / |d|, or 0 when d is the zero vector.
func (a Axis) Project(p Vector) float64 {
	assertSameDim(p, a.d)
	if a.norm == 0 {
		return 0
	}
	return Dot(p, a.d) / a.norm
}

// NearestIndex returns the index of the center nearest to p under squared
// Euclidean distance, together with that squared distance. Ties resolve to
// the lowest index, which keeps the assignment deterministic. It returns
// (-1, +Inf) when centers is empty.
//
// For wide vectors (≥ earlyExitMinDim) the scan early-exits: once a
// candidate's partial sum of squares reaches the best distance so far,
// the remaining dimensions cannot make it strictly closer (squared terms
// are non-negative and IEEE 754 addition of non-negative values is
// monotone), so the candidate is abandoned. Below that width the bound
// checks cost more than the arithmetic they save, so the plain unrolled
// scan runs. Results — index and distance — are bit-identical to the
// exhaustive scan (nearestIndexFull) either way, which the vec tests
// assert.
func NearestIndex(p Vector, centers []Vector) (int, float64) {
	if len(p) < earlyExitMinDim {
		return nearestIndexFull(p, centers)
	}
	best, bestD := -1, math.Inf(1)
	for i, c := range centers {
		if d, closer := dist2Below(p, c, bestD); closer {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// earlyExitMinDim is the vector width from which the early-exit scan pays
// for its bound checks (one check per 16-dimension chunk in dist2Below).
const earlyExitMinDim = 16

// nearestIndexFull is the exhaustive-scan reference for NearestIndex,
// kept for the bit-identity tests and the early-exit benchmark.
func nearestIndexFull(p Vector, centers []Vector) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, c := range centers {
		if d := Dist2(p, c); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// dist2Below computes Dist2(a, b) with an early exit: it returns
// (distance, true) when the full distance is strictly below bound, and
// (partial, false) as soon as the running sum proves it cannot be. The
// lane structure and final (s0+s1)+(s2+s3) combine replicate Dist2
// exactly, so a returned distance is bit-identical to Dist2's.
func dist2Below(a, b Vector, bound float64) (float64, bool) {
	assertSameDim(a, b)
	var s0, s1, s2, s3 float64
	i := 0
	// Chunks of 16 dimensions: four unrolled blocks of straight-line code,
	// then one bound check. Lane sums only grow (non-negative addends,
	// monotone rounding), so once their combination reaches the bound the
	// candidate is dead regardless of the remaining dimensions.
	for ; i+16 <= len(a); i += 16 {
		for j := i; j < i+16; j += 4 {
			d0 := a[j] - b[j]
			d1 := a[j+1] - b[j+1]
			d2 := a[j+2] - b[j+2]
			d3 := a[j+3] - b[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if cur := (s0 + s1) + (s2 + s3); cur >= bound {
			return cur, false
		}
	}
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	d := (s0 + s1) + (s2 + s3)
	return d, d < bound
}

// WeightedPoint is a running sum of points together with the number of
// points accumulated. It is the value type the k-means mappers emit and
// the reducers merge: merging two WeightedPoints is exact partial
// aggregation, which is what lets a k-means mapper sum its split per
// center before the shuffle.
type WeightedPoint struct {
	Sum   Vector
	Count int64
}

// NewWeightedPoint starts an accumulation from a single point.
func NewWeightedPoint(p Vector) WeightedPoint {
	return WeightedPoint{Sum: Clone(p), Count: 1}
}

// Merge accumulates other into w.
func (w *WeightedPoint) Merge(other WeightedPoint) {
	if w.Sum == nil {
		w.Sum = make(Vector, len(other.Sum))
	}
	AddInPlace(w.Sum, other.Sum)
	w.Count += other.Count
}

// Centroid returns Sum/Count. It panics when Count is zero.
func (w WeightedPoint) Centroid() Vector {
	if w.Count == 0 {
		panic("vec: Centroid of empty WeightedPoint")
	}
	return Scale(w.Sum, 1/float64(w.Count))
}

// ByteSize reports the serialized size of the weighted point under the
// engine's wire model: 8 bytes per coordinate plus an 8-byte count, plus an
// 8-byte key. Used for shuffle-volume accounting.
func (w WeightedPoint) ByteSize() int { return 8*len(w.Sum) + 16 }
