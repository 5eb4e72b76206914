package vec

// Packed centers: the serving-side counterpart of the training-side
// columnar split views.
//
// The batch kernels in batch.go want two things the training path gets
// for free from the decoded-split cache: a stable center set it can
// stream over, and reusable dim-major scratch for the query points. An
// assignment server has neither — queries arrive row-major one request
// at a time, and the center set changes only on a model hot swap. A
// CenterPack is the kernel-ready form of one immutable center set: the
// centers copied into a single contiguous row-major backing array (one
// allocation, cache-dense, safely decoupled from the caller's slices)
// plus a pool of AssignScratch buffers so a request can transpose its
// points and run NearestBatch with zero steady-state allocation.
//
// Bit-compatibility: packing copies coordinate values verbatim, so every
// kernel result obtained through a pack is bit-identical to running the
// same kernel — and therefore, per the batch.go contract, the scalar
// NearestIndex — over the original center slices.

import "sync"

// CenterPack is an immutable, kernel-ready packing of one center set.
// Build with PackCenters; safe for concurrent use.
type CenterPack struct {
	k, dim  int
	flat    []float64 // k*dim, row-major, single allocation
	centers []Vector  // views into flat, one per center
	pool    sync.Pool // *AssignScratch
}

// AssignScratch holds the per-call buffers one NearestRows call needs:
// the dim-major transpose of the query points, the result arrays, and
// the kernel's own BatchScratch. Obtain from CenterPack.GetScratch; a
// scratch must not be shared by concurrent calls.
type AssignScratch struct {
	colflat []float64
	idx     []int32
	dist    []float64
	bs      BatchScratch
}

// PackCenters copies centers into a contiguous pack. Every center must
// have the same dimensionality (enforced upstream by model validation;
// a mismatch panics, consistent with this package's conventions).
func PackCenters(centers []Vector) *CenterPack {
	p := &CenterPack{k: len(centers)}
	if p.k == 0 {
		return p
	}
	p.dim = len(centers[0])
	p.flat = make([]float64, p.k*p.dim)
	p.centers = make([]Vector, p.k)
	for i, c := range centers {
		assertSameDim(c, centers[0])
		row := p.flat[i*p.dim : (i+1)*p.dim : (i+1)*p.dim]
		copy(row, c)
		p.centers[i] = row
	}
	return p
}

// K returns the number of packed centers.
func (p *CenterPack) K() int { return p.k }

// Dim returns the centers' dimensionality (0 when K is 0).
func (p *CenterPack) Dim() int { return p.dim }

// GetScratch returns a scratch from the pack's pool, allocating one the
// first time. Return it with PutScratch when done; scratches grow to the
// largest batch they have served and are reused across requests.
func (p *CenterPack) GetScratch() *AssignScratch {
	if s, ok := p.pool.Get().(*AssignScratch); ok {
		return s
	}
	return &AssignScratch{}
}

// PutScratch returns a scratch to the pool.
func (p *CenterPack) PutScratch(s *AssignScratch) { p.pool.Put(s) }

// assignTilePoints is the point-tile width NearestRows feeds the kernel:
// transposing and assigning tile-by-tile keeps the dim-major buffer
// small enough to stay cache-resident (a whole-batch transpose at large
// n puts its column strides in conflicting cache sets and thrashes on
// every write), and matches the kernel's own tile width.
const assignTilePoints = nearestTilePoints

// grow sizes the scratch for n points of dim coordinates. The dim-major
// buffer only ever holds one tile.
func (s *AssignScratch) grow(dim, n int) {
	tn := n
	if tn > assignTilePoints {
		tn = assignTilePoints
	}
	if cap(s.colflat) < dim*tn {
		s.colflat = make([]float64, dim*tn)
	}
	if cap(s.idx) < n {
		s.idx = make([]int32, n)
	}
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
	}
}

// Nearest answers one row-major query: the index of the nearest packed
// center and the squared distance, exactly as NearestIndex returns them
// (including index -1, +Inf for empty packs or non-finite distances).
// It never allocates.
func (p *CenterPack) Nearest(q Vector) (int, float64) {
	return NearestIndex(q, p.centers)
}

// NearestRows assigns a batch of row-major query points through the
// fused columnar kernel: it transposes points into the scratch's
// dim-major buffer and runs NearestBatch, returning per-point nearest
// center indexes and squared distances (views into the scratch, valid
// until its next use). Every point must have the pack's dimensionality;
// results are bit-identical to calling NearestIndex per point, with the
// same -1/+Inf degenerate outcomes. A nil scratch allocates a private
// one (convenience for tests; hot paths should pool).
func (p *CenterPack) NearestRows(points []Vector, s *AssignScratch) (idx []int32, dist []float64) {
	n := len(points)
	if s == nil {
		s = &AssignScratch{}
	}
	s.grow(p.dim, n)
	for _, q := range points {
		if len(q) != p.dim {
			panic("vec: NearestRows point dimensionality does not match the pack")
		}
	}
	idx, dist = s.idx[:n], s.dist[:n]
	for t := 0; t < n; t += assignTilePoints {
		tl := assignTilePoints
		if n-t < tl {
			tl = n - t
		}
		colflat := s.colflat[:p.dim*tl]
		for j, q := range points[t : t+tl] {
			for d, x := range q {
				colflat[d*tl+j] = x
			}
		}
		NearestBatch(p.centers, colflat, tl, idx[t:t+tl], dist[t:t+tl], &s.bs)
	}
	return idx, dist
}
