package kmeansmr

import (
	"math"
	"slices"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/vec"
)

// Grouped assignment of one split under every center set of a multi-k
// job (multiMapper, evalMapper). The reference set, the last in ks
// order (the largest, since the jobs' ks ascend; any set would be as
// exact), is assigned with the full kernel; its assignment
// partitions the split into groups, one per reference center c_g, with
// radius r_g, the largest computed distance from a member to c_g. For a
// member x of group g and any other set, the triangle inequality (Elkan,
// ICML 2003, applied per group as in Yinyang k-means, Ding et al., ICML
// 2015) gives
//
//	d(x, c_j) ≥ d(c_g, c_j) − r_g   and   d(x, c_j*) ≤ m_g + r_g,
//
// where m_g = min_j d(c_g, c_j) is reached at j*. So no center with
// d(c_g, c_j) > m_g + 2·r_g can be x's nearest, and each group runs the
// kernel over only the other centers, kept in increasing index order.
//
// Exactness. Every quantity above is a computed distance: √Dist2 of a
// difference of floats. Without overflow, Dist2's result is the exact
// squared distance times (1+θ), |θ| ≤ γ_{dim+3} ≈ (dim+3)·u (Higham,
// Accuracy and Stability of Numerical Algorithms, §3.1: dim/4+2 additions
// per lane, a subtraction and a multiplication per term), plus an
// absolute error of at most dim·2⁻¹⁰⁷⁴ from squares that underflow
// (subtraction and addition are exact in the subnormal range). A center
// is kept when its table distance is at most
//
//	(m_g + 2·r_g)·(1 + slack) + pruneFloor,
//
// with slack = 2¹⁶·(dim+3)·u, far above the relative error, and
// pruneFloor = 1e-150, far above √(dim·2⁻¹⁰⁷⁴) ≈ √dim·2e-162. A pruned
// center's exact distance to x therefore exceeds the kept j*'s by more
// than either error can close, so its computed Dist2 is strictly greater
// than the kept best's, and the strict < fold of vec.NearestBatch picks
// the same first minimum as a scan over all centers, ties included.
// Where squares overflow, the kept best's computed distance can be +Inf;
// a pruned center's, larger by the same margin, is then +Inf too, and
// +Inf never wins the fold. A non-finite bound and any non-finite table
// entry (a center with an Inf or NaN coordinate, or centers so far apart
// that their distance overflows) make the group keep every center, as
// do the points the reference left unassigned (index −1).
//
// Two costs shape the work. The split is gathered per bounded chunk of
// groupChunk points, each group's members copied dim-major into one block
// padded to a multiple of 8 points with copies of its last member (the
// kernel's SIMD width; the padded outputs are dropped); the chunk's
// blocks serve every set, and folding chunk by chunk still adds in input
// order. And a set whose candidate lists would cost the kernel more than
// half the full scan on this split, counted from the split-level radii
// with the padding of each group's points to 8 and of its candidates to
// the kernel's blocks of 4, runs the full kernel on the split's own
// columns instead.

const (
	// groupChunk is the most points gathered per chunk; a split is cut
	// into chunks of equal size, so no chunk is a small remainder whose
	// groups would be mostly padding.
	groupChunk = 2048
	// pruneFloor is the absolute term of the pruning margin, in distance
	// units: above the range where squares underflow.
	pruneFloor = 1e-150
	// maxTableEntries bounds a job's distance table (16 MB of float64s).
	// The table has |ref|·Σ_other k entries, cubic in k_max for a k range;
	// a job whose table would not fit builds none, and every set runs the
	// full kernel.
	maxTableEntries = 1 << 21
)

// groupPlan is the read-only, per-job half of the grouped assignment:
// the center sets in ks order, which of them is the reference, and for
// every other set the computed distance from each reference center to
// each of its centers. It depends only on the job's center sets, so it
// is built once per job and shared by every map task.
type groupPlan struct {
	sets [][]vec.Vector
	ref  int
	// table[i][g*k+j] = √Dist2(sets[ref][g], sets[i][j]) for k =
	// len(sets[i]); nil for i == ref. table itself is nil when it would
	// not fit maxTableEntries, and every set runs the full kernel.
	table [][]float64
	// near[i][g] = min_j table[i][g*k+j], or NaN when the row holds a
	// non-finite entry.
	near  [][]float64
	slack float64
}

// newGroupPlan builds the plan of a job over centerSets, iterated in ks
// order, with points of dim coordinates.
func newGroupPlan(centerSets map[int][]vec.Vector, ks []int, dim int) *groupPlan {
	p := &groupPlan{
		sets:  make([][]vec.Vector, len(ks)),
		slack: 0x1p16 * float64(dim+3) * 0x1p-53,
	}
	total := 0
	for i, k := range ks {
		p.sets[i] = centerSets[k]
		total += len(p.sets[i])
	}
	p.ref = max(len(ks)-1, 0)
	if len(ks) == 0 || int64(len(p.sets[p.ref]))*int64(total-len(p.sets[p.ref])) > maxTableEntries {
		return p
	}
	p.table, p.near = make([][]float64, len(ks)), make([][]float64, len(ks))
	for i, set := range p.sets {
		if i == p.ref {
			continue
		}
		ref, k := p.sets[p.ref], len(set)
		table, near := make([]float64, len(ref)*k), make([]float64, len(ref))
		for g, c := range ref {
			m := math.Inf(1)
			for j, cj := range set {
				d := math.Sqrt(vec.Dist2(c, cj))
				table[g*k+j] = d
				if !(d <= math.MaxFloat64) {
					m = math.NaN()
				} else if d < m {
					m = d
				}
			}
			near[g] = m
		}
		p.table[i], p.near[i] = table, near
	}
	return p
}

// groupAssigner is one map task's half of the grouped assignment: its
// buffers, reused across the task's splits.
type groupAssigner struct {
	plan  *groupPlan
	batch BatchAssigner
	// computed counts the point–center distances the kernel evaluated,
	// padding included. It is not the app.distance.computations counter,
	// which keeps the paper's modelled n·Σk.
	computed int64

	padded []int64   // points the kernel runs per group, padding included
	radius []float64 // r_g
	chunk  int       // points per chunk on this split
	perm   []int32   // per chunk, the chunk's points ordered by group
	offs   []int32   // per chunk, G+2 offsets into its part of perm
	cursor []int32

	grouped []int   // sets that take the grouped path on this split
	cand    []int32 // their candidate lists, set by set, group by group
	candAt  []int32 // G+2 offsets into cand per grouped set

	block   []float64 // the chunk's groups, dim-major, padded
	blockAt []int
	centers []vec.Vector
	gIdx    []int32
	gDist   []float64
	scratch vec.BatchScratch
}

// assign computes, for every center set of the plan, each point's nearest
// center index and squared distance, bit-identical to vec.NearestBatch
// over that set's centers. It hands them to visit, set by set (the index
// into the plan's sets), as consecutive runs starting at point lo; the
// runs of one set arrive in input order. The slices are valid only
// during the call.
func (a *groupAssigner) assign(cols *dfs.ColumnarSplit, visit func(set, lo int, idx []int32, dist []float64) error) error {
	p := a.plan
	n := cols.Len()
	if len(p.sets) == 0 {
		return nil
	}
	ref := p.sets[p.ref]
	idx, dist := a.batch.AssignDist(ref, cols)
	a.computed += int64(n) * int64(len(ref))
	if err := visit(p.ref, 0, idx, dist); err != nil {
		return err
	}
	if len(p.sets) == 1 || n == 0 {
		return nil
	}
	if p.table != nil {
		a.group(idx, dist)
	}

	a.grouped, a.cand, a.candAt = a.grouped[:0], a.cand[:0], a.candAt[:0]
	for i, set := range p.sets {
		if i == p.ref {
			continue
		}
		if p.table != nil {
			nc, na := len(a.cand), len(a.candAt)
			if work := a.candidates(i); 2*work <= int64(n)*int64((len(set)+3)&^3) {
				a.grouped = append(a.grouped, i)
				continue
			}
			a.cand, a.candAt = a.cand[:nc], a.candAt[:na]
		}
		idx, dist := a.batch.AssignDist(set, cols)
		a.computed += int64(n) * int64(len(set))
		if err := visit(i, 0, idx, dist); err != nil {
			return err
		}
	}
	if len(a.grouped) == 0 {
		return nil
	}

	G := len(ref)
	// Padding adds at most 7 points per group with members.
	a.block = resize(a.block, cols.Dim()*(a.chunk+7*min(G+1, a.chunk)))
	a.blockAt = resize(a.blockAt, G+1)
	a.gIdx = resize(a.gIdx, a.chunk+7)
	a.gDist = resize(a.gDist, a.chunk+7)
	for c, lo := 0, 0; lo < n; c, lo = c+1, lo+a.chunk {
		hi := min(lo+a.chunk, n)
		off := a.offs[c*(G+2) : (c+1)*(G+2)]
		a.gather(cols, lo, off)
		// The split-sized buffers of the full kernel are free by now.
		out, outDist := a.batch.idx[lo:hi], a.batch.dist[lo:hi]
		for gi, i := range a.grouped {
			set := p.sets[i]
			lists := a.candAt[gi*(G+2) : (gi+1)*(G+2)]
			for g := 0; g <= G; g++ {
				m := int(off[g+1] - off[g])
				if m == 0 {
					continue
				}
				mp := (m + 7) &^ 7
				cands := a.cand[lists[g]:lists[g+1]]
				centers := a.centers[:0]
				for _, j := range cands {
					centers = append(centers, set[j])
				}
				a.centers = centers
				bi, bd := a.gIdx[:mp], a.gDist[:mp]
				blk := a.block[a.blockAt[g] : a.blockAt[g]+cols.Dim()*mp]
				vec.NearestBatch(centers, blk, mp, bi, bd, &a.scratch)
				a.computed += int64(mp) * int64(len(cands))
				for t, j := range a.perm[lo+int(off[g]) : lo+int(off[g])+m] {
					best := bi[t]
					if best >= 0 {
						best = cands[best]
					}
					out[int(j)-lo], outDist[int(j)-lo] = best, bd[t]
				}
			}
			if err := visit(i, lo, out, outDist); err != nil {
				return err
			}
		}
	}
	return nil
}

// group partitions the split by its reference assignment: the radius
// and the padded point count of every group, group G holding the points
// the reference left unassigned, and per chunk the chunk's points
// ordered by group (input order within a group).
func (a *groupAssigner) group(idx []int32, dist []float64) {
	G := len(a.plan.sets[a.plan.ref])
	n := len(idx)
	a.padded = resize(a.padded, G+1)
	a.radius = resize(a.radius, G+1)
	clear(a.padded)
	clear(a.radius)
	for j, g := range idx {
		if g >= 0 {
			a.radius[g] = max(a.radius[g], dist[j])
		}
	}
	for g, r := range a.radius {
		a.radius[g] = math.Sqrt(r)
	}

	chunks := (n + groupChunk - 1) / groupChunk
	a.chunk = (n + chunks - 1) / chunks
	a.perm = resize(a.perm, n)
	a.offs = resize(a.offs, chunks*(G+2))
	a.cursor = resize(a.cursor, G+1)
	for c := 0; c < chunks; c++ {
		lo, hi := c*a.chunk, min((c+1)*a.chunk, n)
		off := a.offs[c*(G+2) : (c+1)*(G+2)]
		clear(off)
		for _, g := range idx[lo:hi] {
			off[bucket(g, G)+1]++
		}
		for g := 1; g < len(off); g++ {
			a.padded[g-1] += int64(off[g]+7) &^ 7
			off[g] += off[g-1]
		}
		copy(a.cursor, off)
		for j := lo; j < hi; j++ {
			g := bucket(idx[j], G)
			a.perm[lo+int(a.cursor[g])] = int32(j)
			a.cursor[g]++
		}
	}
}

// bucket maps a reference index to its group; −1 goes to group G.
func bucket(g int32, G int) int {
	if g < 0 {
		return G
	}
	return int(g)
}

// candidates appends the candidate list of set i for every group (empty
// for a group without members on this split) and returns the distances
// the kernel would evaluate over them: Σ_g padded points · candidates
// padded to the kernel's blocks of four centers.
func (a *groupAssigner) candidates(i int) int64 {
	p := a.plan
	k, G := len(p.sets[i]), len(p.sets[p.ref])
	table, near := p.table[i], p.near[i]
	var work int64
	for g := 0; g <= G; g++ {
		a.candAt = append(a.candAt, int32(len(a.cand)))
		if a.padded[g] == 0 {
			continue
		}
		before := len(a.cand)
		a.cand = slices.Grow(a.cand, k)
		list, kept := a.cand[before:before+k], 0
		bound := math.NaN()
		if g < G {
			bound = (near[g]+2*a.radius[g])*(1+p.slack) + pruneFloor
		}
		if bound <= math.MaxFloat64 {
			for j, t := range table[g*k : (g+1)*k] {
				list[kept] = int32(j)
				if t <= bound {
					kept++
				}
			}
		} else {
			for j := range list {
				list[j] = int32(j)
			}
			kept = k
		}
		a.cand = a.cand[:before+kept]
		work += a.padded[g] * int64((kept+3)&^3)
	}
	a.candAt = append(a.candAt, int32(len(a.cand)))
	return work
}

// gather copies the chunk starting at point lo into one dim-major block
// per group with members, padded to a multiple of 8 points.
func (a *groupAssigner) gather(cols *dfs.ColumnarSplit, lo int, off []int32) {
	n, dim, flat := cols.Len(), cols.Dim(), cols.Flat()
	pos := 0
	for g := 0; g+1 < len(off); g++ {
		m := int(off[g+1] - off[g])
		if m == 0 {
			continue
		}
		mp := (m + 7) &^ 7
		a.blockAt[g] = pos
		members := a.perm[lo+int(off[g]) : lo+int(off[g])+m]
		for d := 0; d < dim; d++ {
			col := flat[d*n : (d+1)*n]
			row := a.block[pos+d*mp : pos+(d+1)*mp]
			for t, j := range members {
				row[t] = col[j]
			}
			for t := m; t < mp; t++ {
				row[t] = row[m-1]
			}
		}
		pos += dim * mp
	}
}

// resize returns s with length n, reallocated when its capacity is short.
// Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
