// Package invariants holds algorithm-agnostic checkers for clustering
// results and run traces. Harnesses (cmd/stress -zoo, regression tests)
// assert these properties instead of golden outputs: they must hold for any
// algorithm over any dataset — hostile ones included — so a violation is a
// bug by definition, not a tolerance tuning problem.
//
// The package deliberately depends on nothing but the standard library and
// speaks plain types ([][]float64, map[string]int64), so both the core
// engine and the public facade can be checked with the same code.
package invariants

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Violation is one broken invariant: which contract failed and the concrete
// evidence.
type Violation struct {
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return v.Invariant + ": " + v.Detail
}

// Format renders violations one per line; empty input yields "".
func Format(vs []Violation) string {
	if len(vs) == 0 {
		return ""
	}
	lines := make([]string, len(vs))
	for i, v := range vs {
		lines[i] = v.String()
	}
	return strings.Join(lines, "\n")
}

func violationf(invariant, format string, args ...any) Violation {
	return Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
}

// CheckKRange asserts 1 <= k <= maxK (maxK <= 0 means uncapped) and that k
// matches the center count when centers are given.
func CheckKRange(k, maxK, centerCount int) []Violation {
	var vs []Violation
	if k < 1 {
		vs = append(vs, violationf("k-range", "k=%d < 1", k))
	}
	if maxK > 0 && k > maxK {
		vs = append(vs, violationf("k-range", "k=%d exceeds MaxK=%d", k, maxK))
	}
	if centerCount >= 0 && k != centerCount {
		vs = append(vs, violationf("k-range", "k=%d but %d centers returned", k, centerCount))
	}
	return vs
}

// CheckCentersFinite asserts every center coordinate is a finite number.
func CheckCentersFinite(centers [][]float64) []Violation {
	var vs []Violation
	for i, c := range centers {
		for d, x := range c {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				vs = append(vs, violationf("centers-finite", "center %d dim %d = %v", i, d, x))
			}
		}
	}
	return vs
}

// CheckCentersInBounds asserts every center lies inside the data bounding
// box (with a small relative tolerance for float accumulation). Centroids
// are convex combinations of points, so a center outside the box means the
// reduction averaged points it was never given.
func CheckCentersInBounds(points, centers [][]float64) []Violation {
	if len(points) == 0 || len(centers) == 0 {
		return nil
	}
	dim := len(points[0])
	lo := append([]float64(nil), points[0]...)
	hi := append([]float64(nil), points[0]...)
	for _, p := range points {
		for d, x := range p {
			if x < lo[d] {
				lo[d] = x
			}
			if x > hi[d] {
				hi[d] = x
			}
		}
	}
	var vs []Violation
	for i, c := range centers {
		if len(c) != dim {
			vs = append(vs, violationf("centers-bbox", "center %d has dim %d, data has %d", i, len(c), dim))
			continue
		}
		for d, x := range c {
			eps := 1e-9 * math.Max(1, math.Max(math.Abs(lo[d]), math.Abs(hi[d])))
			if x < lo[d]-eps || x > hi[d]+eps {
				vs = append(vs, violationf("centers-bbox",
					"center %d dim %d = %g outside data range [%g, %g]", i, d, x, lo[d], hi[d]))
			}
		}
	}
	return vs
}

// CheckAssignment asserts the structural contract: every point is assigned
// exactly once (one label per point) and every label names an existing
// cluster.
func CheckAssignment(n, k int, assignment []int) []Violation {
	var vs []Violation
	if len(assignment) != n {
		vs = append(vs, violationf("assignment", "%d labels for %d points", len(assignment), n))
	}
	for i, a := range assignment {
		if a < 0 || a >= k {
			vs = append(vs, violationf("assignment", "point %d assigned to cluster %d, k=%d", i, a, k))
			break
		}
	}
	return vs
}

// CheckAssignmentNearest additionally asserts each label is a nearest
// center — valid only when the producer guarantees a final assignment pass
// (e.g. the facade's NearestIndex assignment), not for algorithms whose
// returned labels may predate the last centroid update.
func CheckAssignmentNearest(points, centers [][]float64, assignment []int) []Violation {
	if vs := CheckAssignment(len(points), len(centers), assignment); len(vs) > 0 {
		return vs
	}
	var vs []Violation
	for i, p := range points {
		got := dist2(p, centers[assignment[i]])
		best := math.Inf(1)
		for _, c := range centers {
			if d := dist2(p, c); d < best {
				best = d
			}
		}
		if got > best*(1+1e-12)+1e-12 {
			vs = append(vs, violationf("assignment-nearest",
				"point %d assigned at dist² %g, nearest center at %g", i, got, best))
			break
		}
	}
	return vs
}

// WCSS computes the within-cluster sum of squares of points against their
// nearest centers.
func WCSS(points, centers [][]float64) float64 {
	total := 0.0
	for _, p := range points {
		best := math.Inf(1)
		for _, c := range centers {
			if d := dist2(p, c); d < best {
				best = d
			}
		}
		total += best
	}
	return total
}

// CheckWCSSDescent asserts Lloyd's guarantee over a sequence of center sets
// from successive k-means rounds: the objective never increases. rounds[i]
// is the full center set after round i; tol is the relative slack for float
// reassociation (1e-9 is ample for the bit-stable engine paths).
func CheckWCSSDescent(points [][]float64, rounds [][][]float64, tol float64) []Violation {
	var vs []Violation
	prev := math.Inf(1)
	for i, centers := range rounds {
		w := WCSS(points, centers)
		if w > prev+tol*math.Max(1, prev) {
			vs = append(vs, violationf("wcss-descent",
				"round %d WCSS %g > round %d WCSS %g", i, w, i-1, prev))
		}
		prev = w
	}
	return vs
}

// CheckReadConservation asserts the DFS accounting identity that holds for
// every engine path: bytes read is exactly the dataset reads times the file
// size — each logical pass accounts each split's bytes once, and split
// shares sum to the file.
func CheckReadConservation(datasetReads, bytesRead, fileSize int64) []Violation {
	var vs []Violation
	if datasetReads < 1 {
		vs = append(vs, violationf("read-conservation", "DatasetReads=%d, want >= 1", datasetReads))
	}
	if fileSize > 0 && bytesRead != datasetReads*fileSize {
		vs = append(vs, violationf("read-conservation",
			"BytesRead=%d != DatasetReads(%d) x fileSize(%d) = %d",
			bytesRead, datasetReads, fileSize, datasetReads*fileSize))
	}
	return vs
}

// CheckCountersNonNegative asserts no counter underflowed.
func CheckCountersNonNegative(counters map[string]int64) []Violation {
	var vs []Violation
	for _, name := range sortedKeys(counters) {
		if counters[name] < 0 {
			vs = append(vs, violationf("counters", "%s = %d < 0", name, counters[name]))
		}
	}
	return vs
}

// Digest produces a canonical bit-exact digest of a clustering outcome —
// centers (by Float64bits, so -0 vs 0 and every ULP count), optional sizes
// and counters. Two engine paths that claim equivalence (local vs proc,
// text vs binary input, JSON vs binary serve) must produce equal digests,
// and golden digests pin results across changes.
func Digest(centers [][]float64, sizes []int64, counters map[string]int64) string {
	h := sha256.New()
	var buf [8]byte
	for _, c := range centers {
		for _, x := range c {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
		h.Write([]byte{'\n'})
	}
	for _, s := range sizes {
		binary.LittleEndian.PutUint64(buf[:], uint64(s))
		h.Write(buf[:])
	}
	for _, name := range sortedKeys(counters) {
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(buf[:], uint64(counters[name]))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// DigestAssignments digests an assignment response (cluster indexes plus
// distances) bit-exactly, for JSON-vs-binary serve identity checks.
func DigestAssignments(clusters []int, dists []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, c := range clusters {
		binary.LittleEndian.PutUint64(buf[:], uint64(c))
		h.Write(buf[:])
	}
	for _, d := range dists {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func dist2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
