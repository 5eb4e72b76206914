// Package kdtree implements a k-d tree over cluster centers for exact
// nearest-neighbor search — the "mrkd-tree" acceleration the paper's
// related work discusses (Pelleg & Moore, "Accelerating exact k-means
// algorithms with geometric reasoning", KDD 1999): in k-means, the
// per-point nearest-center query is the inner loop, and a spatial index
// over the (small) center set replaces the O(k) linear scan with a pruned
// descent.
//
// The tree indexes *centers*, not points, so it is cheap to build (k ≪ n)
// and safe to share read-only. Training runs every map task on the
// batched columnar kernel instead — measured faster than the tree's
// pruned descent even though the tree computes far fewer distances
// (BenchmarkNearestTreeVsLinear keeps that ablation) — so the tree's one
// user is the assignment server, which answers singleton queries with it
// where measurement selects it. Results are exact: a branch is pruned only when the splitting
// hyperplane is provably farther than the best candidate found so far,
// and ties resolve to the lowest center index, matching
// vec.NearestIndex's determinism so the two implementations are
// interchangeable.
package kdtree

import (
	"math"
	"sort"

	"gmeansmr/internal/vec"
)

// Tree is an immutable k-d tree over a fixed set of centers.
type Tree struct {
	nodes   []node
	centers []vec.Vector
	root    int
}

type node struct {
	axis        int     // splitting dimension
	split       float64 // splitting value (the node point's coordinate)
	center      int     // index into centers
	left, right int     // node indexes, -1 for none
}

// Build constructs a k-d tree over centers. The centers slice is retained
// (not copied) and must not be mutated while the tree is in use. Build
// panics on an empty center set: a nearest-neighbor structure over nothing
// is a programming error.
func Build(centers []vec.Vector) *Tree {
	if len(centers) == 0 {
		panic("kdtree: Build with no centers")
	}
	t := &Tree{
		nodes:   make([]node, 0, len(centers)),
		centers: centers,
	}
	idx := make([]int, len(centers))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(idx, 0)
	return t
}

// build recursively constructs the subtree over the given center indexes,
// cycling the splitting axis by depth, and returns the node index.
func (t *Tree) build(idx []int, depth int) int {
	if len(idx) == 0 {
		return -1
	}
	axis := depth % len(t.centers[idx[0]])
	// Median split by the axis coordinate; ties broken by center index for
	// deterministic trees.
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := t.centers[idx[a]][axis], t.centers[idx[b]][axis]
		if ca != cb {
			return ca < cb
		}
		return idx[a] < idx[b]
	})
	mid := len(idx) / 2
	n := node{
		axis:   axis,
		split:  t.centers[idx[mid]][axis],
		center: idx[mid],
		left:   -1,
		right:  -1,
	}
	self := len(t.nodes)
	t.nodes = append(t.nodes, n)
	left := t.build(append([]int{}, idx[:mid]...), depth+1)
	right := t.build(append([]int{}, idx[mid+1:]...), depth+1)
	t.nodes[self].left = left
	t.nodes[self].right = right
	return self
}

// Size returns the number of indexed centers.
func (t *Tree) Size() int { return len(t.centers) }

// Nearest returns the index of the center nearest to p (squared Euclidean)
// and that squared distance. Ties resolve to the lowest index, exactly
// like vec.NearestIndex.
func (t *Tree) Nearest(p vec.Vector) (int, float64) {
	idx, d2, _ := t.NearestCounted(p)
	return idx, d2
}

// NearestCounted is Nearest plus the number of full distance computations
// the descent performed — the quantity the paper's cost model counts, so
// the pruned work can be compared with the linear scan's k
// (BenchmarkNearestTreeVsLinear).
func (t *Tree) NearestCounted(p vec.Vector) (int, float64, int64) {
	best, bestD := -1, math.Inf(1)
	var comps int64
	t.search(t.root, p, &best, &bestD, &comps)
	return best, bestD, comps
}

func (t *Tree) search(ni int, p vec.Vector, best *int, bestD *float64, comps *int64) {
	if ni < 0 {
		return
	}
	n := &t.nodes[ni]
	d := vec.Dist2(p, t.centers[n.center])
	*comps++
	if d < *bestD || (d == *bestD && n.center < *best) {
		*best, *bestD = n.center, d
	}
	diff := p[n.axis] - n.split
	near, far := n.left, n.right
	if diff > 0 {
		near, far = n.right, n.left
	}
	t.search(near, p, best, bestD, comps)
	// The far side can only hold a better center if the splitting plane is
	// at least as close as the current best (<= keeps index-tie semantics).
	if diff*diff <= *bestD {
		t.search(far, p, best, bestD, comps)
	}
}
