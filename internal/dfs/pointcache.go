package dfs

// Decoded-split point cache.
//
// Every mapper in this repository consumes the same records as the same
// float64 points, every iteration. The paper's cost model
// charges an iteration one *dataset read* — it says nothing about paying the
// strconv.ParseFloat tax n·dim times per pass. This file caches the decoded
// form of each split so the parse happens once per (file, split) and later
// scans serve ready-made points. A file written by PointWriter has no text
// to parse: its "decode" slices the points the file was written from
// (pointwriter.go), bit-identical to what a parse of its text would return.
//
// Accounting stays faithful to the paper's I/O model: every OpenSplitPoints
// call accounts the split's logical text bytes as read — the bytes of the
// records it owns, terminators included — and jobs keep ticking one dataset
// read per input scan. The cache changes CPU cost only — what the
// counters measure (scans of the dataset) is untouched. ReplicaSplit reads
// through the same cache without accounting: copying a split to another
// node is transport, not a scan.
//
// Memory trade-off: a cached raw-byte file costs ≈ 8·n·dim bytes of
// float64s on top of its text (text is ~15 bytes per coordinate, so the
// decoded form is about half the text size). A written file holds only
// the points, and its cache entries are views into them.
//
// Invalidation: the cache entry of a path is keyed on the file it was
// built from, so Create and Delete, which replace or drop the file (and
// its written points with it), drop the entry; SetSplitSize drops every
// entry (the split layout changed) but no written points, so the
// re-split file is sliced again rather than parsed. Readers that obtained
// a PointSplit before an invalidation keep a consistent snapshot of the
// file it was decoded from.

import (
	"fmt"
	"sync"

	"gmeansmr/internal/pointtext"
)

// PointSplit is the decoded form of one split: Len() points of Dim()
// float64 coordinates, backed by a single flat array. At returns strided
// views into that array — callers must treat them as read-only and may
// retain them for as long as they like (the backing array is immutable
// once decoded). Columns (columnar.go) serves the same coordinates
// dim-major for the batch kernels, materialized lazily at most once.
type PointSplit struct {
	flat  []float64
	dim   int
	bytes int64

	colOnce sync.Once
	col     *ColumnarSplit
}

// NewPointSplit wraps len(flat)/dim points of dim coordinates, whose
// records hold bytes bytes of text, as a split. The split takes flat over:
// the caller must not modify it afterwards. A node builds the splits whose
// points another node shipped to it with it. It panics unless dim is
// positive and divides len(flat).
func NewPointSplit(flat []float64, dim int, bytes int64) *PointSplit {
	if dim <= 0 || len(flat)%dim != 0 {
		panic(fmt.Sprintf("dfs: NewPointSplit: %d coordinates at dim %d", len(flat), dim))
	}
	return &PointSplit{flat: flat, dim: dim, bytes: bytes}
}

// Len returns the number of points in the split.
func (p *PointSplit) Len() int { return len(p.flat) / p.dim }

// Flat returns the row-major backing array: point i is
// Flat()[i*Dim():(i+1)*Dim()]. Callers must treat it as read-only.
func (p *PointSplit) Flat() []float64 { return p.flat }

// Dim returns the dimensionality of the points.
func (p *PointSplit) Dim() int { return p.dim }

// At returns the i-th point as a read-only view into the backing array.
// The full-slice expression pins capacity so an append by a misbehaving
// caller cannot clobber the neighbouring point.
func (p *PointSplit) At(i int) []float64 {
	return p.flat[i*p.dim : (i+1)*p.dim : (i+1)*p.dim]
}

// Bytes returns the logical byte size of the split's records: each owned
// record with its terminator. The shares of a full split set sum to the
// file size, so every scan pays the paper's full I/O cost.
func (p *PointSplit) Bytes() int64 { return p.bytes }

// filePoints is the decoded cache entry for one file: the file it was
// built from plus one lazily-decoded slot per split. Holding the file
// makes concurrent decode immune to a mid-wave overwrite of the path
// (readers of the old entry keep the old file).
type filePoints struct {
	f         *file
	dim       int
	splitSize int
	slots     []pointSlot
}

type pointSlot struct {
	once sync.Once
	ps   *PointSplit
	err  error
}

// valid reports whether the entry still describes the current file,
// dimensionality and split layout.
func (fp *filePoints) valid(f *file, dim, splitSize int) bool {
	return fp.f == f && fp.dim == dim && fp.splitSize == splitSize
}

// OpenSplitPoints returns the decoded points of the given split, decoding
// on first access and serving the cached decode on every later scan. Text
// records are parsed through the shared tokenizer; a binary point file
// (see binary.go) is rejected with ErrBinaryFile. Each call accounts the
// split's logical bytes as read, so BytesRead advances per scan exactly as
// a full pass over the file does;
// dataset-read accounting is unchanged (jobs tick it once per input scan).
// Every record must hold exactly dim coordinates.
//
// The returned PointSplit and all point views are safe for concurrent use.
func (fs *FS) OpenSplitPoints(sp Split, dim int) (*PointSplit, error) {
	ps, err := fs.openSplit(sp, dim)
	if err != nil {
		return nil, err
	}
	fs.bytesRead.Add(ps.bytes)
	return ps, nil
}

// ReplicaSplit returns the same points as OpenSplitPoints, through the
// same cache, but accounts no read: shipping a split to the node that
// runs it is a transport cost, not one of the paper's dataset scans. A
// split of a written file is a slice of its points; a raw-byte file is
// parsed once, here, and the parse is cached for later scans.
func (fs *FS) ReplicaSplit(sp Split, dim int) (*PointSplit, error) {
	return fs.openSplit(sp, dim)
}

// openSplit serves one split from the cache, decoding on first access.
func (fs *FS) openSplit(sp Split, dim int) (*PointSplit, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("dfs: reading a split needs a positive dim, got %d", dim)
	}
	// Fast path: cache hits take only the read lock, so a map wave's split
	// opens never serialize on an exclusive section.
	fs.mu.RLock()
	f, ok := fs.files[sp.Path]
	fp := fs.points[sp.Path]
	ss := fs.splitSize
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, sp.Path)
	}
	if fp == nil || !fp.valid(f, dim, ss) {
		fs.mu.Lock()
		f, ok = fs.files[sp.Path]
		if !ok {
			fs.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrNotFound, sp.Path)
		}
		ss = fs.splitSize
		fp = fs.points[sp.Path]
		if fp == nil || !fp.valid(f, dim, ss) {
			numSplits := (f.size + int64(ss) - 1) / int64(ss)
			fp = &filePoints{f: f, dim: dim, splitSize: ss, slots: make([]pointSlot, numSplits)}
			if fs.points == nil {
				fs.points = make(map[string]*filePoints)
			}
			fs.points[sp.Path] = fp
		}
		fs.mu.Unlock()
	}

	stride := int64(fp.splitSize)
	canonical := sp.Index >= 0 && sp.Index < len(fp.slots) && sp.Start == int64(sp.Index)*stride
	if canonical {
		wantEnd := sp.Start + stride
		if limit := fp.f.size; wantEnd > limit {
			wantEnd = limit
		}
		canonical = sp.End == wantEnd
	}
	if !canonical {
		// A split descriptor from a stale layout (e.g. obtained before
		// SetSplitSize); decode it uncached rather than poisoning the cache.
		return fp.decode(sp)
	}
	slot := &fp.slots[sp.Index]
	slot.once.Do(func() {
		slot.ps, slot.err = fp.decode(sp)
	})
	return slot.ps, slot.err
}

// invalidatePoints drops the decoded entry for path. Callers hold fs.mu.
func (fs *FS) invalidatePoints(path string) {
	delete(fs.points, path)
}

// invalidateAllPoints drops every decoded entry. Callers hold fs.mu.
func (fs *FS) invalidateAllPoints() {
	fs.points = nil
}

// decode serves one split of the entry's file: sliced from the points a
// written file keeps, parsed from a raw-byte file's bytes. A written file
// read at another dim fails as a parse of its text would.
func (fp *filePoints) decode(sp Split) (*PointSplit, error) {
	wp := fp.f.points
	if wp == nil {
		return decodeSplit(fp.f.data, sp, fp.dim)
	}
	if wp.dim != fp.dim {
		return nil, fmt.Errorf("dfs: %s split %d: file holds %d-dimensional points, want %d", sp.Path, sp.Index, wp.dim, fp.dim)
	}
	return wp.split(sp, fp.f.size), nil
}

// decodeSplit parses the text records of one split into a flat point
// array through the shared tokenizer. recordIter decides which records the
// split owns, and each owned record counts its consumed bytes (record plus
// "\n" or "\r\n" terminator), so the shares of a full split set sum to
// the file size. A binary body (Create takes any bytes) is rejected
// rather than parsed as lines.
func decodeSplit(data []byte, sp Split, dim int) (*PointSplit, error) {
	if IsBinary(data) {
		return nil, fmt.Errorf("%w: %s", ErrBinaryFile, sp.Path)
	}
	// Pre-size for the common case of ~15 bytes per coordinate; a split
	// narrower than one record may own no records at all.
	est := int(sp.End-sp.Start)/(15*dim) + 1
	if est < 1 {
		est = 1
	}
	flat := make([]float64, 0, est*dim)
	var logical int64
	it := newRecordIter(data, sp)
	for {
		rec, ok := it.next()
		if !ok {
			break
		}
		// One string conversion per record: instantiating the tokenizer
		// with []byte would instead allocate a string per coordinate
		// (strconv.ParseFloat needs string input).
		var err error
		flat, err = pointtext.AppendPoint(flat, string(rec), dim)
		if err != nil {
			return nil, fmt.Errorf("dfs: %s split %d: %w", sp.Path, sp.Index, err)
		}
		logical += it.pos - it.recStart
	}
	return &PointSplit{flat: flat, dim: dim, bytes: logical}, nil
}
