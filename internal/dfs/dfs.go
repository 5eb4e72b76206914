// Package dfs simulates the distributed file system underneath the
// MapReduce engine: files divided into fixed-size splits, exactly like
// HDFS blocks feeding Hadoop input formats. Point datasets have one record
// format — newline-delimited text (TextInputFormat shape) — served through
// the decoded point cache (pointcache.go) and its columnar views
// (columnar.go). The GMPB binary frame codec of binary.go, specified in
// docs/formats.md, is for files outside the DFS; split scans reject it.
//
// The paper's cost model counts "dataset reads" as the dominant I/O cost of
// chained MapReduce jobs (G-means pays O(log2 k) reads, multi-k-means one
// read per iteration). This package tracks those reads so the experiment
// harness can report them alongside wall-clock time.
//
// Files live in memory, as byte slices or as the points they were written
// from. That is a deliberate substitution
// for HDFS blocks on spinning disks: the algorithms under study never
// observe storage latency directly, only (a) how many times the dataset is
// scanned and (b) how records are partitioned into splits — both of which
// are modeled faithfully.
//
// # Contract
//
// Split ownership. A split [Start, End) owns the records that begin at or
// after Start (skipping a partial leading record unless Start is 0) and
// reads through the record straddling End. Every record has exactly one
// owner under any layout. One implementation enforces the rules —
// recordIter, walked by the point cache's decode — and the written-points
// slicer (pointwriter.go) applies the same rule to record offsets.
//
// Snapshot reads. OpenSplitPoints is the one split reader of jobs: it and
// Columns hand out immutable views, so a reader holding one across a
// concurrent overwrite, delete or re-split keeps a consistent snapshot of
// the file it opened.
//
// Written-from-points files. A text file committed by PointWriter keeps
// the float64 points it was written from, each record's start offset
// and the text's length, but not the text itself: its splits are sliced
// from those points under the same ownership rule instead of parsed
// (pointwriter.go), and Contents regenerates the text byte for byte. The
// size is the one FormatPoint's lines would have and the points are
// bit-identical to their parse, so no reader can tell the two kinds of
// file apart. Files written as raw bytes (Create, Writer) keep their
// bytes and are parsed on first scan.
//
// Replication. ReplicaSplit serves a split through the same cache as
// OpenSplitPoints without ticking read accounting: it is how a
// distributed backend ships a split's points to the node that runs it.
//
// Cache invalidation. The decoded point cache (and the columnar views
// hanging off its PointSplits) invalidates per path on Create and Delete,
// and wholesale on SetSplitSize; stale split descriptors decode correctly
// but bypass the cache. Written points belong to the file: Create and
// Delete of the path drop them with the file, SetSplitSize keeps them,
// since they do not depend on the split layout.
//
// Accounting conservation. Every scan of a split — cold or cached —
// accounts the split's full logical bytes, and per-split shares always
// sum to the file size; jobs tick one dataset read per non-empty input
// scan. Caching removes parse CPU only;
// the paper's I/O model never notices it.
package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultSplitSize mirrors the 64 MB default HDFS block size mentioned in
// the paper ("the size of a single split (64MB on a default Hadoop
// installation)").
const DefaultSplitSize = 64 << 20

// ErrNotFound is returned when a path does not exist in the file system.
var ErrNotFound = errors.New("dfs: file not found")

// ErrBinaryFile is returned when a split scan meets a file whose body is
// a binary point file (see binary.go): the DFS stores points as text only,
// and parsing frame bytes as lines is always a bug.
var ErrBinaryFile = errors.New("dfs: binary point file has no text records")

// FS is an in-memory simulated distributed file system.
//
// All methods are safe for concurrent use. Read accounting is monotonic and
// survives file deletion (the counters describe the history of the
// computation, not the current state of storage).
type FS struct {
	mu        sync.RWMutex
	files     map[string]*file
	splitSize int
	// points caches the decoded float64 form of each file's splits (see
	// pointcache.go). Guarded by mu; invalidated on Create, Delete and
	// SetSplitSize.
	points map[string]*filePoints
	// versions holds each path's generation: every Create and Delete
	// gives the path a fresh value from versionClock, and entries survive
	// deletion (a re-created path must not repeat an old version).
	// Replication layers cache split replicas per (path, version).
	// Guarded by mu; lazily allocated.
	versions map[string]int64

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	// datasetReads counts whole-file scan passes, ticked through
	// CountDatasetRead once per complete set of split reads; this is the
	// paper's "dataset read" unit.
	datasetReads atomic.Int64
}

type file struct {
	// data holds the contents of a file written as raw bytes; it is nil
	// for a file written from points, which keeps no text.
	data []byte
	// size is the file's length in bytes: len(data), or, for a file
	// written from points, the length of its text as a PointWriter
	// measured it with pointtext.RecordLen (the text is never formatted).
	size int64
	// points are the points a PointWriter wrote the file from, or nil
	// for a file written as raw bytes (pointwriter.go).
	points *writtenPoints
}

// New creates an empty file system with the given split size. A
// non-positive splitSize selects DefaultSplitSize.
func New(splitSize int) *FS {
	if splitSize <= 0 {
		splitSize = DefaultSplitSize
	}
	return &FS{files: make(map[string]*file), splitSize: splitSize}
}

// SetSplitSize reconfigures the split size; subsequent Splits calls use the
// new value. A non-positive size selects DefaultSplitSize. Callers that
// stream a dataset of unknown size into the FS use this to right-size the
// splits once the total byte count is known.
func (fs *FS) SetSplitSize(size int) {
	if size <= 0 {
		size = DefaultSplitSize
	}
	fs.mu.Lock()
	fs.splitSize = size
	fs.invalidateAllPoints() // the split layout of every file changed
	fs.mu.Unlock()
}

// BytesRead returns the total number of bytes served to readers so far.
func (fs *FS) BytesRead() int64 { return fs.bytesRead.Load() }

// BytesWritten returns the total number of bytes written so far.
func (fs *FS) BytesWritten() int64 { return fs.bytesWritten.Load() }

// DatasetReads returns the number of whole-dataset scan passes recorded.
func (fs *FS) DatasetReads() int64 { return fs.datasetReads.Load() }

// ResetCounters zeroes the I/O accounting. File contents are untouched.
func (fs *FS) ResetCounters() {
	fs.bytesRead.Store(0)
	fs.bytesWritten.Store(0)
	fs.datasetReads.Store(0)
}

// Create replaces the file at path with a copy of the given contents.
func (fs *FS) Create(path string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	fs.commit(path, &file{data: cp, size: int64(len(cp))})
}

// commit replaces the file at path with f, which the FS takes over.
func (fs *FS) commit(path string, f *file) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = f
	fs.invalidatePoints(path)
	fs.bumpVersion(path)
	fs.bytesWritten.Add(f.size)
}

// versionClock issues generations to every FS in the process, so a
// (path, version) pair names one content even across FSes: a runner that
// caches replicas by that pair and is reused with a second FS holding
// other points at the same path must not mistake them for the first's.
var versionClock atomic.Int64

// bumpVersion gives path a fresh generation; callers hold fs.mu.
func (fs *FS) bumpVersion(path string) {
	if fs.versions == nil {
		fs.versions = make(map[string]int64)
	}
	fs.versions[path] = versionClock.Add(1)
}

// Version reports the generation of path: zero for a path never created,
// and otherwise a value that strictly increases across every Create and
// Delete of the path (deletion does not reset it) and that no other
// content, in this FS or another FS of the process, ever carries at the
// same path. Replication layers use it to decide whether a cached
// replica of a split is current.
func (fs *FS) Version(path string) int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.versions[path]
}

// Contents returns a copy of the file's bytes without touching any read
// accounting. A file written from points has its text formatted here,
// byte-identical to FormatPoint's lines for its points, whose lengths its
// PointWriter measured. Dataset scans go through OpenSplitPoints and
// replication through ReplicaSplit; Contents is for tests that inspect a
// whole file.
func (fs *FS) Contents(path string) ([]byte, error) {
	fs.mu.RLock()
	f, ok := fs.files[path]
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if f.points != nil {
		return f.points.text(f.size), nil
	}
	cp := make([]byte, len(f.data))
	copy(cp, f.data)
	return cp, nil
}

// Writer returns a buffered writer of raw bytes that materializes into
// path on Close. Writing to an existing path overwrites it atomically at
// Close time. Point datasets are staged with PointWriter instead.
func (fs *FS) Writer(path string) *FileWriter {
	return &FileWriter{fs: fs, path: path}
}

// FileWriter accumulates bytes and commits them to the FS on Close.
type FileWriter struct {
	fs   *FS
	path string
	buf  bytes.Buffer
}

// Write appends p to the pending file contents.
func (w *FileWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// WriteString appends s to the pending file contents.
func (w *FileWriter) WriteString(s string) (int, error) { return w.buf.WriteString(s) }

// Close commits the buffered contents to the file system. The buffer is
// private to the writer, so the FS takes it over without a copy: a later
// Write only appends past the committed length.
func (w *FileWriter) Close() error {
	w.fs.commit(w.path, &file{data: w.buf.Bytes(), size: int64(w.buf.Len())})
	return nil
}

// Delete removes a file. Deleting a missing file is a no-op.
func (fs *FS) Delete(path string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; ok {
		delete(fs.files, path)
		fs.bumpVersion(path)
	}
	fs.invalidatePoints(path)
}

// Size returns the length in bytes of the file at path.
func (fs *FS) Size(path string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return f.size, nil
}

// Split identifies one contiguous byte range of a file, aligned to record
// (line) boundaries the same way Hadoop's TextInputFormat aligns splits: a
// reader assigned [Start, End) consumes the first record that *begins* at
// or after Start and the record that straddles End.
type Split struct {
	Path  string
	Index int
	Start int64
	End   int64 // exclusive
}

// Splits partitions the file at path into splits of the file system's split
// size. The final split absorbs the remainder. An empty file yields no
// splits.
func (fs *FS) Splits(path string) ([]Split, error) {
	fs.mu.RLock()
	f, ok := fs.files[path]
	ss := int64(fs.splitSize)
	fs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	total := f.size
	if total == 0 {
		return nil, nil
	}
	var out []Split
	for off, i := int64(0), 0; off < total; off, i = off+ss, i+1 {
		end := off + ss
		if end > total {
			end = total
		}
		out = append(out, Split{Path: path, Index: i, Start: off, End: end})
	}
	return out, nil
}

// CountDatasetRead records one whole-dataset scan. The MapReduce engine
// calls this once per job input, since every map wave collectively reads
// the input exactly once.
func (fs *FS) CountDatasetRead() { fs.datasetReads.Add(1) }

// recordIter walks the newline-delimited records of a split using the
// Hadoop alignment convention (skip a partial leading record unless the
// split starts at byte 0; read through the record straddling End). It is
// the single implementation of the split-ownership rules; decodeSplit
// (the point cache) consumes it.
type recordIter struct {
	data []byte
	pos  int64
	end  int64
	done bool
	// recStart is the byte offset in data of the record last returned by
	// next — the record's true position in the file. It differs from a
	// running sum of record lengths whenever the split skipped a partial
	// leading record or a record ends in "\r\n".
	recStart int64
}

func newRecordIter(data []byte, sp Split) recordIter {
	it := recordIter{data: data, pos: sp.Start, end: sp.End}
	// A stale descriptor can outlive its file's size (the path overwritten
	// with shorter contents): a window beyond the data owns no records.
	if sp.Start < 0 || sp.Start >= int64(len(data)) {
		it.done = true
		return it
	}
	if sp.Start > 0 {
		// Skip the tail of the record owned by the previous split.
		idx := bytes.IndexByte(data[sp.Start:], '\n')
		if idx < 0 {
			it.done = true
		} else {
			it.pos = sp.Start + int64(idx) + 1
		}
	}
	return it
}

// next returns the next record (without its line terminator — a trailing
// "\n" or "\r\n" — as a view into the file bytes) and true, or (nil, false)
// once the split is exhausted. After a true return, it.recStart holds the
// record's byte offset and it.pos sits just past its terminator, so
// it.pos - it.recStart is the record's full consumed byte length.
func (it *recordIter) next() ([]byte, bool) {
	// Hadoop's line reader reads every record whose first byte lies at
	// or before End (inclusive); the matching skip rule in newRecordIter
	// guarantees each record is owned by exactly one split.
	if it.done || it.pos > it.end || it.pos >= int64(len(it.data)) {
		it.done = true
		return nil, false
	}
	it.recStart = it.pos
	idx := bytes.IndexByte(it.data[it.pos:], '\n')
	var rec []byte
	if idx < 0 {
		rec = it.data[it.pos:]
		it.pos = int64(len(it.data))
		it.done = true
	} else {
		rec = it.data[it.pos : it.pos+int64(idx)]
		it.pos += int64(idx) + 1
	}
	// CRLF line endings: the terminator is two bytes; the '\r' belongs to
	// it, not to the record, exactly as in Hadoop's line reader.
	if n := len(rec); n > 0 && rec[n-1] == '\r' {
		rec = rec[:n-1]
	}
	return rec, true
}
