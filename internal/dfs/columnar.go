package dfs

// Columnar (dim-major) split views.
//
// The row-major PointSplit of pointcache.go serves point-at-a-time scans:
// At(i) is one contiguous dim-stride row. The batch distance kernels in
// internal/vec want the transpose — one dimension contiguous across every
// point of the split — so a kernel can stream a whole split per call
// instead of chasing n short rows. This file adds that view: every
// PointSplit can lazily materialize a ColumnarSplit holding the same
// coordinates dim-major, built at most once per cached decode and shared
// by every scan that follows.
//
// Ownership and lifetime mirror the row view exactly: the columnar flat
// array is immutable once built, callers may retain it indefinitely, and
// the view is cached *inside* its PointSplit — so the invalidation rules
// of the decode cache (Create and Delete drop the path's entry,
// SetSplitSize drops everything) apply to the columnar form for free, and
// a reader holding a view across an invalidation keeps a consistent
// snapshot.
//
// Memory trade-off: a materialized columnar view doubles the decoded
// footprint of its split (another 8·n·dim bytes). It is only built when a
// columnar consumer (an mr.PointMapper) actually runs, so scans that only
// walk rows — the driver's sampling pass — pay nothing.
//
// Byte accounting is untouched: Columns is a layout change on an
// already-opened split, and the paper's I/O model charged the split's
// logical bytes when OpenSplitPoints served it.

// ColumnarSplit is the dim-major form of one decoded split: coordinate d
// of point j lives at Flat()[d*Len()+j], so each dimension is one
// contiguous array across all points. It shares its identity (and its
// row-major twin) with the PointSplit it was built from. All methods are
// safe for concurrent use; the backing array is read-only.
type ColumnarSplit struct {
	ps   *PointSplit
	flat []float64
}

// Len returns the number of points in the split.
func (c *ColumnarSplit) Len() int { return c.ps.Len() }

// Dim returns the dimensionality of the points.
func (c *ColumnarSplit) Dim() int { return c.ps.dim }

// Flat returns the dim-major backing array (length Dim()·Len()), the
// shape the vec batch kernels consume. Callers must treat it as read-only.
func (c *ColumnarSplit) Flat() []float64 { return c.flat }

// Col returns dimension d as one contiguous array across all points.
// Callers must treat it as read-only.
func (c *ColumnarSplit) Col(d int) []float64 {
	n := c.ps.Len()
	return c.flat[d*n : (d+1)*n : (d+1)*n]
}

// At returns the i-th point as a row-major view — the same slice the
// underlying PointSplit serves — so columnar consumers can still hand
// whole points to row-shaped code (candidate emission, projections)
// without a gather.
func (c *ColumnarSplit) At(i int) []float64 { return c.ps.At(i) }

// Rows returns the row-major backing array of the split — point i at
// Rows()[i*Dim():(i+1)*Dim()], the slices At serves — for kernels that
// take a whole split of rows in one call. Callers must treat it as
// read-only.
func (c *ColumnarSplit) Rows() []float64 { return c.ps.flat }

// Columns returns the dim-major view of the split, materializing it on
// first call and serving the cached transpose afterwards. The coordinate
// values are the identical float64 bits the row view holds. Safe for
// concurrent use.
func (p *PointSplit) Columns() *ColumnarSplit {
	p.colOnce.Do(func() {
		n, dim := p.Len(), p.dim
		cs := &ColumnarSplit{ps: p, flat: make([]float64, n*dim)}
		for j := 0; j < n; j++ {
			row := p.flat[j*dim : (j+1)*dim]
			for d, v := range row {
				cs.flat[d*n+j] = v
			}
		}
		p.col = cs
	})
	return p.col
}
