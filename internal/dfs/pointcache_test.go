package dfs

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// pointFile renders n points of dim coordinates as the engine's text
// format and returns the text plus the expected decoded values.
func pointFile(n, dim int, seed int64) (string, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 100
		}
		pts[i] = p
		for d, x := range p {
			if d > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", x)
		}
		b.WriteByte('\n')
	}
	return b.String(), pts
}

// readAllSplitPoints decodes every split of path and returns the points
// in order.
func readAllSplitPoints(t *testing.T, fs *FS, path string, dim int) [][]float64 {
	t.Helper()
	splits, err := fs.Splits(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]float64
	for _, sp := range splits {
		ps, err := fs.OpenSplitPoints(sp, dim)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ps.Len(); i++ {
			out = append(out, ps.At(i))
		}
	}
	return out
}

func TestOpenSplitPointsDecodesEveryRecordOnce(t *testing.T) {
	text, want := pointFile(500, 3, 1)
	fs := New(256) // many splits, records straddling boundaries
	fs.Create("/p", []byte(text))
	got := readAllSplitPoints(t, fs, "/p", 3)
	if len(got) != len(want) {
		t.Fatalf("decoded %d points, want %d", len(got), len(want))
	}
	for i := range want {
		for d := range want[i] {
			if got[i][d] != want[i][d] {
				t.Fatalf("point %d dim %d: got %v want %v", i, d, got[i][d], want[i][d])
			}
		}
	}
}

// TestOpenSplitPointsAccountingSumsToFileSize pins the accounting
// contract: the per-split byte shares of a scan sum to the file size, and
// every scan — cold or cached — advances BytesRead by exactly that much,
// on LF, CRLF and unterminated files and on a file written from points.
// The paper's I/O model must not notice the cache.
func TestOpenSplitPointsAccountingSumsToFileSize(t *testing.T) {
	text, pts := pointFile(300, 4, 2)
	fs := New(512)
	fs.Create("/lf", []byte(text))
	fs.Create("/crlf", []byte(strings.ReplaceAll(text, "\n", "\r\n")))
	fs.Create("/unterminated", []byte(strings.TrimSuffix(text, "\n")))
	w := fs.PointWriter("/written", 4)
	for _, p := range pts {
		w.Append(p)
	}
	w.Close()
	for _, path := range []string{"/lf", "/crlf", "/unterminated", "/written"} {
		size, err := fs.Size(path)
		if err != nil {
			t.Fatal(err)
		}
		splits, err := fs.Splits(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(splits) < 3 {
			t.Fatalf("%s: want several splits, got %d", path, len(splits))
		}
		for scan := 0; scan < 3; scan++ { // first scan decodes, later scans hit cache
			before := fs.BytesRead()
			var shares int64
			n := 0
			for _, sp := range splits {
				ps, err := fs.OpenSplitPoints(sp, 4)
				if err != nil {
					t.Fatal(err)
				}
				shares += ps.Bytes()
				n += ps.Len()
			}
			if n != len(pts) {
				t.Fatalf("%s scan %d: %d points, want %d", path, scan, n, len(pts))
			}
			if shares != size {
				t.Errorf("%s scan %d: split shares sum to %d, want file size %d", path, scan, shares, size)
			}
			if got := fs.BytesRead() - before; got != size {
				t.Errorf("%s scan %d: accounted %d bytes, want file size %d", path, scan, got, size)
			}
		}
	}
}

func TestOpenSplitPointsCacheServesSameBacking(t *testing.T) {
	text, _ := pointFile(100, 2, 3)
	fs := New(0)
	fs.Create("/p", []byte(text))
	splits, _ := fs.Splits("/p")
	a, err := fs.OpenSplitPoints(splits[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.OpenSplitPoints(splits[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second scan did not hit the cache")
	}
}

func TestOpenSplitPointsInvalidation(t *testing.T) {
	text, _ := pointFile(50, 2, 4)
	fs := New(0)
	fs.Create("/p", []byte(text))
	splits, _ := fs.Splits("/p")
	old, err := fs.OpenSplitPoints(splits[0], 2)
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite: the cache must serve the new contents.
	fs.Create("/p", []byte("7 8\n9 10\n"))
	splits, _ = fs.Splits("/p")
	ps, err := fs.OpenSplitPoints(splits[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if ps == old {
		t.Fatal("overwrite did not invalidate the decode cache")
	}
	if ps.Len() != 2 || ps.At(0)[0] != 7 || ps.At(1)[1] != 10 {
		t.Fatalf("decoded stale contents: %v points", ps.Len())
	}
	// The pre-overwrite PointSplit stays a consistent snapshot.
	if old.Len() != 50 {
		t.Fatalf("old snapshot mutated: %d points", old.Len())
	}

	// Delete: decode must fail, and a re-created file decodes fresh.
	fs.Delete("/p")
	if _, err := fs.OpenSplitPoints(splits[0], 2); err == nil {
		t.Fatal("decode of deleted file succeeded")
	}
	fs.Create("/p", []byte("1 2\n"))
	splits, _ = fs.Splits("/p")
	ps, err = fs.OpenSplitPoints(splits[0], 2)
	if err != nil || ps.Len() != 1 {
		t.Fatalf("decode after re-create: %v, %v", ps, err)
	}
}

// TestOpenSplitPointsSetSplitSize re-splits the file and checks both that
// the cache invalidates and that stale Split descriptors (obtained under
// the old layout) still decode correctly rather than poisoning the new
// layout's slots.
func TestOpenSplitPointsSetSplitSize(t *testing.T) {
	text, want := pointFile(200, 2, 5)
	fs := New(1 << 10)
	fs.Create("/p", []byte(text))
	oldSplits, _ := fs.Splits("/p")
	readAllSplitPoints(t, fs, "/p", 2)

	fs.SetSplitSize(256)
	got := readAllSplitPoints(t, fs, "/p", 2)
	if len(got) != len(want) {
		t.Fatalf("re-split decode lost points: %d vs %d", len(got), len(want))
	}

	// A stale descriptor from the old layout must still read its records.
	stale, err := fs.OpenSplitPoints(oldSplits[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Len() == 0 {
		t.Fatal("stale split decoded no points")
	}
	// And it must not have poisoned the canonical slot of the new layout.
	newSplits, _ := fs.Splits("/p")
	fresh, err := fs.OpenSplitPoints(newSplits[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() == stale.Len() {
		t.Fatalf("new-layout slot served the stale decode (%d points)", stale.Len())
	}
}

// TestOpenSplitPointsSplitNarrowerThanRecord pins split ownership on
// degenerate layouts: a split too narrow to own any record (its whole
// window sits inside one record) must decode to zero points, not panic,
// and the full set of splits must still deliver every record exactly once.
func TestOpenSplitPointsSplitNarrowerThanRecord(t *testing.T) {
	text, want := pointFile(2, 6, 7) // ~180-byte records
	fs := New(50)                    // splits far narrower than one record
	fs.Create("/p", []byte(text))
	got := readAllSplitPoints(t, fs, "/p", 6)
	if len(got) != len(want) {
		t.Fatalf("decoded %d points, want %d", len(got), len(want))
	}
	for i := range want {
		for d := range want[i] {
			if got[i][d] != want[i][d] {
				t.Fatalf("point %d dim %d: got %v want %v", i, d, got[i][d], want[i][d])
			}
		}
	}
}

// TestOpenSplitPointsStaleSplitBeyondShrunkenFile holds split descriptors
// across an overwrite that shrinks the file: descriptors whose window now
// lies beyond the data must decode to zero points, not panic.
func TestOpenSplitPointsStaleSplitBeyondShrunkenFile(t *testing.T) {
	text, _ := pointFile(200, 3, 8)
	fs := New(512)
	fs.Create("/p", []byte(text))
	stale, err := fs.Splits("/p")
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) < 3 {
		t.Fatalf("want ≥3 splits, got %d", len(stale))
	}
	fs.Create("/p", []byte("1 2 3\n")) // shrink far below the old windows
	for _, sp := range stale[1:] {
		ps, err := fs.OpenSplitPoints(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ps.Len() != 0 {
			t.Errorf("stale split %d decoded %d points from shrunken file", sp.Index, ps.Len())
		}
	}
}

func TestOpenSplitPointsBadRecord(t *testing.T) {
	fs := New(0)
	fs.Create("/p", []byte("1 2\n3 oops\n"))
	splits, _ := fs.Splits("/p")
	if _, err := fs.OpenSplitPoints(splits[0], 2); err == nil {
		t.Fatal("bad coordinate accepted")
	}
	fs.Create("/q", []byte("1 2 3\n"))
	splits, _ = fs.Splits("/q")
	if _, err := fs.OpenSplitPoints(splits[0], 2); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := fs.OpenSplitPoints(splits[0], 0); err == nil {
		t.Fatal("non-positive dim accepted")
	}
}

// TestOpenSplitPointsConcurrent hammers one file from many goroutines the
// way a map wave does — first touch races to decode, later touches serve
// the cache — and is meant to run under -race.
func TestOpenSplitPointsConcurrent(t *testing.T) {
	text, want := pointFile(1000, 3, 6)
	fs := New(512)
	fs.Create("/p", []byte(text))
	splits, err := fs.Splits("/p")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total := 0
			for _, sp := range splits {
				ps, err := fs.OpenSplitPoints(sp, 3)
				if err != nil {
					errs <- err
					return
				}
				total += ps.Len()
			}
			if total != len(want) {
				errs <- fmt.Errorf("scanned %d points, want %d", total, len(want))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
