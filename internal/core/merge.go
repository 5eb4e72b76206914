package core

import (
	"math"

	"gmeansmr/internal/vec"
)

// MergeAuto, as a merge radius, derives the radius from the discovered
// centers (SuggestMergeRadius).
const MergeAuto = -1.0

// MergeCenters applies the post-processing merge at radius r. MergeAuto
// resolves the radius with SuggestMergeRadius; any other radius ≤ 0
// merges nothing.
func MergeCenters(centers []vec.Vector, r float64) []vec.Vector {
	if r == MergeAuto {
		r = SuggestMergeRadius(centers)
	}
	return MergeCloseCenters(centers, r)
}

// MergeCloseCenters implements the post-processing step the paper leaves
// as future work: "the MapReduce version analyzes all clusters in parallel
// and will thus try to double the number of centers at each iteration. As
// a result, it may eventually overestimate the value of k. Future versions
// of the algorithm will thus add a post-processing step to merge close
// centers."
//
// It performs single-linkage agglomeration: centers at distance ≤ radius
// are connected, and every connected component is replaced by its mean.
// The cost is O(k²) on the *center* set only — k is orders of magnitude
// smaller than n, so this runs on the driver exactly like the serial
// PickInitialCenters step.
func MergeCloseCenters(centers []vec.Vector, radius float64) []vec.Vector {
	n := len(centers)
	if n <= 1 || radius <= 0 {
		return centers
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if vec.Dist2(centers[i], centers[j]) <= r2 {
				union(i, j)
			}
		}
	}
	groups := make(map[int][]vec.Vector)
	order := make([]int, 0, n)
	for i, c := range centers {
		root := find(i)
		if _, seen := groups[root]; !seen {
			order = append(order, root)
		}
		groups[root] = append(groups[root], c)
	}
	out := make([]vec.Vector, 0, len(groups))
	for _, root := range order {
		out = append(out, vec.Mean(groups[root]))
	}
	return out
}

// SuggestMergeRadius proposes a merge radius from the centers themselves.
// Over-estimation plants groups of extra centers inside single clusters
// (pairs from one spurious split, whole blobs from a split cascade), so
// the minimum-spanning-tree of the center set has two edge populations:
// short intra-blob edges at the within-cluster scale and long bridges at
// the genuine inter-cluster scale. The radius is placed inside the largest
// multiplicative gap of the sorted MST edge weights (geometric mean of the
// gap's endpoints) when the gap is pronounced (≥3×); a center set without
// such a gap — no redundant centers — yields 0, i.e. nothing to merge.
//
// Because MergeCloseCenters is single-linkage, any radius inside the gap
// collapses every blob to one center while leaving distinct clusters
// untouched, so the exact position within the gap is uncritical.
func SuggestMergeRadius(centers []vec.Vector) float64 {
	n := len(centers)
	if n < 3 {
		// With fewer than three centers the blob/cluster scales cannot be
		// told apart; merging would be guesswork.
		return 0
	}
	// Prim's algorithm, O(k²): k is a center count, not a point count.
	inTree := make([]bool, n)
	minEdge := make([]float64, n)
	for i := range minEdge {
		minEdge[i] = math.Inf(1)
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		minEdge[j] = vec.Dist2(centers[0], centers[j])
	}
	edges := make([]float64, 0, n-1)
	for len(edges) < n-1 {
		best, bestD := -1, math.Inf(1)
		for j := range centers {
			if !inTree[j] && minEdge[j] < bestD {
				best, bestD = j, minEdge[j]
			}
		}
		if best < 0 {
			break
		}
		inTree[best] = true
		edges = append(edges, math.Sqrt(bestD))
		for j := range centers {
			if !inTree[j] {
				if d := vec.Dist2(centers[best], centers[j]); d < minEdge[j] {
					minEdge[j] = d
				}
			}
		}
	}
	sortFloats(edges)
	// Largest multiplicative gap between consecutive MST edge weights.
	const gapThreshold = 3
	bestRatio, bestIdx := 1.0, -1
	for i := 0; i < len(edges)-1; i++ {
		lo := edges[i]
		if lo == 0 {
			lo = 1e-12 // coincident centers: any positive edge is a gap
		}
		if r := edges[i+1] / lo; r > bestRatio {
			bestRatio, bestIdx = r, i
		}
	}
	if bestIdx < 0 || bestRatio < gapThreshold {
		return 0
	}
	lo := edges[bestIdx]
	if lo == 0 {
		return edges[bestIdx+1] / 4
	}
	return math.Sqrt(lo * edges[bestIdx+1])
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
