package dfs

// Written-from-points text files.
//
// Staging a dataset as text would mean formatting every coordinate, and
// the first scan of the staged file parsing every coordinate back. Both
// passes are CPU the paper's cost model never charges for: it counts
// dataset reads and text bytes. PointWriter does neither. It measures
// each point's text record, one chunk of points at a time on up to
// GOMAXPROCS goroutines while the caller keeps appending, with
// pointtext.RecordLen, which computes the length of strconv's shortest
// 'g' formatting without writing a digit. The committed file holds the
// float64 points it was written from, the byte offset at which each
// record starts and the text's total size, never the text.
// OpenSplitPoints serves a split of such a file by slicing those points
// under recordIter's ownership rule, and Contents formats the text when
// a test asks for it.
//
// The points are exactly the ones a parse of the text would produce:
// strconv's shortest 'g' formatting round-trips every float64 through
// strconv.ParseFloat, and the writer stores NaN in the single form
// ParseFloat("NaN") returns. The offsets and size are those of
// FormatPoint(p)+"\n" per point, so every counter of the I/O model is
// that of the text file.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"gmeansmr/internal/pointtext"
)

// chunkCoords sizes a measuring chunk: about 32k coordinates, or ~0.5 MB
// of text, which amortizes a goroutine start and keeps the points still
// being measured when the input ends to a few chunks.
const chunkCoords = 1 << 15

// writtenPoints are the points a text file was written from: point i
// (flat[i*dim:(i+1)*dim]) is the record starting at byte starts[i].
type writtenPoints struct {
	flat   []float64
	dim    int
	starts []int64
}

// text formats the file's text again: FormatPoint(p)+"\n" per point, the
// bytes the writer measured, size of them in all.
func (wp *writtenPoints) text(size int64) []byte {
	out := make([]byte, 0, size)
	for i := 0; i < len(wp.flat); i += wp.dim {
		out = append(pointtext.AppendRecord(out, wp.flat[i:i+wp.dim]), '\n')
	}
	return out
}

// split returns the points of the records sp owns under recordIter's
// rule: records whose first byte lies in [0, End] for a split starting at
// byte 0, and in (Start, End] for any other. size is the file's length;
// Bytes is the span from the first owned record to the end of the last,
// the bytes decodeSplit accounts for the same split.
func (wp *writtenPoints) split(sp Split, size int64) *PointSplit {
	if sp.Start < 0 || sp.Start >= size {
		return &PointSplit{flat: []float64{}, dim: wp.dim}
	}
	n := len(wp.starts)
	lo := 0
	if sp.Start > 0 {
		lo = sort.Search(n, func(i int) bool { return wp.starts[i] > sp.Start })
	}
	hi := sort.Search(n, func(i int) bool { return wp.starts[i] > sp.End })
	if hi <= lo {
		return &PointSplit{flat: []float64{}, dim: wp.dim}
	}
	end := size
	if hi < n {
		end = wp.starts[hi]
	}
	flat := wp.flat[lo*wp.dim : hi*wp.dim : hi*wp.dim]
	return &PointSplit{flat: flat, dim: wp.dim, bytes: end - wp.starts[lo]}
}

// PointWriter commits points as a text file of the engine's record format
// on Close, keeping the points and the records' offsets instead of the
// text. Only the goroutine that created it may call Append and Close. See
// the file comment for what the kept points buy.
type PointWriter struct {
	fs    *FS
	path  string
	dim   int
	chunk int // points per measuring chunk

	flat   []float64 // every appended point
	queued int       // points handed to a chunk so far

	size   int64   // text bytes of the retired chunks
	starts []int64 // start offset of each record in the text

	inFlight []*textChunk // chunks being measured, oldest first
	workers  int
}

// textChunk is one run of consecutive points whose text records are
// measured on their own goroutine with pointtext.RecordLen.
type textChunk struct {
	pts    []float64
	dim    int
	starts []int // record start offsets within the chunk's text
	size   int   // text bytes of the chunk
	done   chan struct{}
}

func (c *textChunk) measure() {
	c.starts = make([]int, 0, len(c.pts)/c.dim)
	for i := 0; i < len(c.pts); i += c.dim {
		c.starts = append(c.starts, c.size)
		c.size += pointtext.RecordLen(c.pts[i:i+c.dim]) + 1 // the record and its '\n'
	}
	close(c.done)
}

// PointWriter returns a writer that commits dim-dimensional points as a
// text file at path on Close, replacing any file there. Until Close the
// file system is untouched.
func (fs *FS) PointWriter(path string, dim int) *PointWriter {
	if dim <= 0 {
		panic(fmt.Sprintf("dfs: PointWriter needs a positive dim, got %d", dim))
	}
	chunk := chunkCoords / dim
	if chunk < 1 {
		chunk = 1
	}
	return &PointWriter{fs: fs, path: path, dim: dim, chunk: chunk, workers: runtime.GOMAXPROCS(0)}
}

// Append adds one point. The writer copies p, so the caller may reuse it.
// Every point must have exactly the writer's dim coordinates.
func (w *PointWriter) Append(p []float64) {
	if len(p) != w.dim {
		panic(fmt.Sprintf("dfs: PointWriter for %s: point has %d coordinates, want %d", w.path, len(p), w.dim))
	}
	start := len(w.flat)
	w.flat = append(grow(w.flat, w.dim), p...)
	for i, x := range w.flat[start:] {
		if x != x {
			w.flat[start+i] = math.NaN() // the one NaN strconv.ParseFloat returns
		}
	}
	if len(w.flat)/w.dim-w.queued == w.chunk {
		w.submit()
	}
}

// submit hands the points appended since the last submit to a new
// measuring goroutine. With workers chunks already in flight it first
// retires the oldest, so measuring keeps pace with appending.
func (w *PointWriter) submit() {
	n := len(w.flat) / w.dim
	if w.queued == n {
		return
	}
	for len(w.inFlight) >= w.workers {
		w.retire()
	}
	// The slice views points that are never written again: a later
	// append either writes past them or moves w.flat to a new array.
	c := &textChunk{pts: w.flat[w.queued*w.dim : n*w.dim], dim: w.dim, done: make(chan struct{})}
	w.queued = n
	w.inFlight = append(w.inFlight, c)
	go c.measure()
}

// retire waits for the oldest in-flight chunk and appends its record
// offsets and size to the file's.
func (w *PointWriter) retire() {
	c := w.inFlight[0]
	w.inFlight[0] = nil // a retired chunk must not pin an outgrown points array
	w.inFlight = w.inFlight[1:]
	<-c.done
	w.starts = grow(w.starts, len(c.starts))
	for _, s := range c.starts {
		w.starts = append(w.starts, w.size+int64(s))
	}
	w.size += int64(c.size)
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it has to move: append's 1.25× steps for large slices
// would copy the staged points and offsets about four times over.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// Close measures the last partial chunk, waits for every chunk and commits
// the points, their offsets and the text size to the file system. The
// writer must not be used afterwards.
func (w *PointWriter) Close() error {
	w.submit()
	for len(w.inFlight) > 0 {
		w.retire()
	}
	f := &file{size: w.size}
	if len(w.starts) > 0 {
		f.points = &writtenPoints{flat: w.flat, dim: w.dim, starts: w.starts}
	}
	w.fs.commit(w.path, f)
	*w = PointWriter{}
	return nil
}
