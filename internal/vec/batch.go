package vec

// Batched (dim-major) distance kernels.
//
// The scalar kernels in vec.go walk one point at a time: NearestIndex costs
// one function call and one loop ramp-up per (point, center) pair. The
// kernels in this file flip the loop nest: callers hand them a whole split
// of points in column-major (structure-of-arrays) order — coordinate d of
// point j at colflat[d*n+j] — and one call assigns every point, processing
// one dimension across a block of points per instruction on hardware with
// SIMD support (8-wide AVX-512 and 4-wide AVX2 paths on amd64, detected
// at startup) and falling back to a portable Go loop elsewhere.
//
// Loop nest of the AVX-512 path: 8-point groups on the outside, with each
// group's running best distance and index held in registers for the whole
// center loop; blocks of four centers inside, with 16 accumulators (four
// centers × Dist2's four lanes); per dimension one load of the point
// column and four subtract/multiply/add triples against the block's
// broadcast center coordinates. The centers are copied once per call into
// the scratch, four interleaved per block, and a count that is not a
// multiple of four is padded by repeating the last center. The four
// distances of a block fold into the running best in center order, so the
// fold is NearestIndex's sequential scan; a padded copy ties the last
// real center bit for bit and therefore never wins. The AVX2 path instead
// streams one center at a time over 256-point tiles.
//
// Bit-compatibility contract: every distance these kernels produce is
// bit-identical to Dist2 on the same operands. Dist2 is unrolled over four
// accumulator lanes combined as (s0+s1)+(s2+s3); the batch kernels keep the
// exact same dimension-to-lane assignment (lane d%4 for the unrolled body,
// lane 0 for the tail) and the same final combine. The SIMD path preserves
// this because it vectorizes across *points* — each point owns one SIMD
// slot, so its four lane sums still accumulate one dimension at a time in
// scalar order, and no fused multiply-add is used (FMA rounds once where
// mul-then-add rounds twice). NearestBatch therefore selects exactly the
// index NearestIndex selects, including its tie rule (strictly-closer wins,
// so the lowest index survives ties) and its degenerate outcome (index -1,
// +Inf when centers is empty or every distance is non-finite). The vec
// tests pin this equivalence on both paths.
//
// FoldRows is the other half of an assignment pass: it adds every point
// into its center's running Σx in input order, one call per split.
//
// Nothing here allocates per point: scratch lives in BatchScratch and is
// reusable across calls.

import "math"

// BatchScratch holds the buffers reused across batch-kernel calls. The
// zero value is ready to use; kernels grow it on demand. A scratch must
// not be shared by concurrent calls.
type BatchScratch struct {
	lanes  []float64 // 4 lane arrays of n values each (portable path)
	idxf   []float64 // best-index-as-float64 buffer (AVX2 path blends doubles)
	blocks []float64 // centers packed four per block (AVX-512 path)
	point  []float64 // one gathered row for tail points
}

// lanesFor returns the four lane arrays sized for n points.
func (s *BatchScratch) lanesFor(n int) (l0, l1, l2, l3 []float64) {
	if cap(s.lanes) < 4*n {
		s.lanes = make([]float64, 4*n)
	}
	b := s.lanes[:4*n]
	return b[0*n : 1*n : 1*n], b[1*n : 2*n : 2*n], b[2*n : 3*n : 3*n], b[3*n : 4*n : 4*n]
}

// idxfFor returns the float64 index buffer sized for n points.
func (s *BatchScratch) idxfFor(n int) []float64 {
	if cap(s.idxf) < n {
		s.idxf = make([]float64, n)
	}
	return s.idxf[:n]
}

// pointFor returns a gather buffer for one dim-coordinate row.
func (s *BatchScratch) pointFor(dim int) []float64 {
	if cap(s.point) < dim {
		s.point = make([]float64, dim)
	}
	return s.point[:dim]
}

// accumulateLanes fills the lane arrays with the per-lane partial sums of
// squared differences between every point of colflat and center. After it
// returns, Dist2(point j, center) == (l0[j]+l1[j])+(l2[j]+l3[j]) bit-for-bit.
func accumulateLanes(center Vector, colflat []float64, n int, l0, l1, l2, l3 []float64) {
	dim := len(center)
	if dim < 4 {
		// The whole vector is Dist2's tail loop: everything accumulates in
		// lane 0, and the other lanes contribute zero to the combine.
		for j := range l0[:n] {
			l0[j], l1[j], l2[j], l3[j] = 0, 0, 0, 0
		}
		for d := 0; d < dim; d++ {
			c := center[d]
			x := colflat[d*n : d*n+n : d*n+n]
			acc := l0[:n]
			for j, v := range x {
				e := v - c
				acc[j] += e * e
			}
		}
		return
	}
	for d := 0; d+4 <= dim; d += 4 {
		c0, c1, c2, c3 := center[d], center[d+1], center[d+2], center[d+3]
		x0 := colflat[(d+0)*n : (d+0)*n+n : (d+0)*n+n]
		x1 := colflat[(d+1)*n : (d+1)*n+n : (d+1)*n+n]
		x2 := colflat[(d+2)*n : (d+2)*n+n : (d+2)*n+n]
		x3 := colflat[(d+3)*n : (d+3)*n+n : (d+3)*n+n]
		if d == 0 {
			// The first dimension group initializes the lanes, so the
			// scratch never needs a separate zeroing pass.
			for j := range x0 {
				e0 := x0[j] - c0
				e1 := x1[j] - c1
				e2 := x2[j] - c2
				e3 := x3[j] - c3
				l0[j] = e0 * e0
				l1[j] = e1 * e1
				l2[j] = e2 * e2
				l3[j] = e3 * e3
			}
			continue
		}
		for j := range x0 {
			e0 := x0[j] - c0
			e1 := x1[j] - c1
			e2 := x2[j] - c2
			e3 := x3[j] - c3
			l0[j] += e0 * e0
			l1[j] += e1 * e1
			l2[j] += e2 * e2
			l3[j] += e3 * e3
		}
	}
	// Tail dimensions accumulate into lane 0, exactly like Dist2's tail loop.
	for d := dim - dim%4; d < dim; d++ {
		c := center[d]
		x := colflat[d*n : d*n+n : d*n+n]
		acc := l0[:n]
		for j, v := range x {
			e := v - c
			acc[j] += e * e
		}
	}
}

// nearestTilePoints is the point-tile width of the AVX2 path: tiles are
// sized so one tile's columns stay cache-resident while every center
// streams over it, instead of every center re-streaming the whole split.
const nearestTilePoints = 256

// NearestBatch assigns each of the n dim-major points of colflat to its
// nearest center: idx[j] receives the index of the nearest center to point
// j and dist[j] the squared distance, exactly the values NearestIndex
// returns for the same point (same bits, same tie rule, and idx[j] = -1
// with dist[j] = +Inf when centers is empty or every distance is
// non-finite). One call replaces n·k scalar Dist2 calls. A nil scratch
// allocates a fresh one.
func NearestBatch(centers []Vector, colflat []float64, n int, idx []int32, dist []float64, s *BatchScratch) {
	if len(idx) < n || len(dist) < n {
		panic("vec: NearestBatch idx/dist slices too short")
	}
	dim := 0
	if len(centers) > 0 {
		dim = len(centers[0])
		checkBatchShape(dim, colflat, n)
	}
	inf := math.Inf(1)
	for j := 0; j < n; j++ {
		idx[j], dist[j] = -1, inf
	}
	if len(centers) == 0 || n == 0 {
		return
	}
	if s == nil {
		s = &BatchScratch{}
	}
	if dim > 0 && nearestBatchAccel(centers, colflat, n, idx, dist, s) {
		return
	}
	l0, l1, l2, l3 := s.lanesFor(n)
	for c, center := range centers {
		accumulateLanes(center, colflat, n, l0, l1, l2, l3)
		cc := int32(c)
		dd := dist[:n]
		ii := idx[:n]
		for j := range dd {
			d2 := (l0[j] + l1[j]) + (l2[j] + l3[j])
			if d2 < dd[j] {
				dd[j], ii[j] = d2, cc
			}
		}
	}
}

// nearestBatchTail assigns the points the SIMD kernels did not cover
// (at most 7, when n is not a multiple of the SIMD width) by gathering
// each row and running the scalar kernel — bit-identical by construction.
func nearestBatchTail(centers []Vector, colflat []float64, n, from int, idx []int32, dist []float64, s *BatchScratch) {
	dim := len(centers[0])
	p := s.pointFor(dim)
	for j := from; j < n; j++ {
		for d := 0; d < dim; d++ {
			p[d] = colflat[d*n+j]
		}
		bi, bd := NearestIndex(p, centers)
		idx[j], dist[j] = int32(bi), bd
	}
}

// FoldRows adds the row-major rows (row j at rows[j*dim:(j+1)*dim]) into
// per-center running sums: for j in input order, row j is added into
// sums[idx[j]*dim:(idx[j]+1)*dim] and counts[idx[j]] is incremented. The
// sums are bit-identical to merging each row into a WeightedPoint whose
// Sum started at zero — the same additions, the running sum as the first
// operand, in the same order. It panics when an index is outside
// [0, len(counts)), when sums cannot hold len(counts) rows or rows cannot
// hold len(idx) rows, or when dim is not positive.
func FoldRows(sums []float64, counts []int64, rows []float64, dim int, idx []int32) {
	if dim <= 0 || len(sums) < len(counts)*dim || len(rows) < len(idx)*dim {
		panic("vec: FoldRows buffers do not hold their rows")
	}
	k := uint32(len(counts))
	for _, c := range idx {
		if uint32(c) >= k {
			panic("vec: FoldRows index out of range")
		}
	}
	if foldRowsAccel(sums, counts, rows, dim, idx) {
		return
	}
	foldRowsGo(sums, counts, rows, dim, idx)
}

// foldRowsGo is FoldRows' portable kernel: AddInPlace's loop, row by row.
func foldRowsGo(sums []float64, counts []int64, rows []float64, dim int, idx []int32) {
	for j, c := range idx {
		s := sums[int(c)*dim : int(c)*dim+dim : int(c)*dim+dim]
		r := rows[j*dim : j*dim+dim : j*dim+dim]
		for i := range s {
			s[i] += r[i]
		}
		counts[c]++
	}
}

// checkBatchShape panics unless colflat holds exactly n points of dim
// coordinates. Shape mismatches are programming errors, as elsewhere in
// this package.
func checkBatchShape(dim int, colflat []float64, n int) {
	if n < 0 || len(colflat) != dim*n {
		panic("vec: dim-major buffer does not hold n points of the center's dimensionality")
	}
}
