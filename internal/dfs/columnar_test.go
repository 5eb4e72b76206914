package dfs

import (
	"fmt"
	"sync"
	"testing"
)

// readAllColumns decodes every split of path and returns the points in
// order, gathered back out of the dim-major views.
func readAllColumns(t *testing.T, fs *FS, path string, dim int) [][]float64 {
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
		cs := ps.Columns()
		n := cs.Len()
		for j := 0; j < n; j++ {
			p := make([]float64, dim)
			for d := 0; d < dim; d++ {
				p[d] = cs.Col(d)[j]
			}
			out = append(out, p)
		}
	}
	return out
}

// TestColumnsMatchRows pins the transpose: every coordinate of the
// columnar view must hold the identical float64 bits the row view holds,
// and both access paths (Col and Flat) must agree.
func TestColumnsMatchRows(t *testing.T) {
	t.Run("text", func(t *testing.T) {
		text, want := pointFile(311, 5, 11)
		fs := New(512)
		fs.Create("/p", []byte(text))
		splits, err := fs.Splits("/p")
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, sp := range splits {
			ps, err := fs.OpenSplitPoints(sp, 5)
			if err != nil {
				t.Fatal(err)
			}
			cs := ps.Columns()
			if cs.Len() != ps.Len() || cs.Dim() != ps.Dim() {
				t.Fatalf("split %d: columnar shape %dx%d, rows %dx%d",
					sp.Index, cs.Len(), cs.Dim(), ps.Len(), ps.Dim())
			}
			flat := cs.Flat()
			n := cs.Len()
			for i := 0; i < n; i++ {
				row := ps.At(i)
				if got := cs.At(i); &got[0] != &row[0] {
					t.Fatalf("split %d: columnar At(%d) is not the row view", sp.Index, i)
				}
				for d, v := range row {
					if cs.Col(d)[i] != v || flat[d*n+i] != v {
						t.Fatalf("split %d point %d dim %d: columnar %v, row %v",
							sp.Index, i, d, cs.Col(d)[i], v)
					}
				}
			}
			total += n
		}
		if total != len(want) {
			t.Fatalf("columnar views covered %d points, want %d", total, len(want))
		}
	})
}

// TestColumnsCachedOncePerSplit checks that repeated scans share one
// materialized transpose, through both the same PointSplit and the cache.
func TestColumnsCachedOncePerSplit(t *testing.T) {
	text, _ := pointFile(100, 3, 12)
	fs := New(0)
	fs.Create("/p", []byte(text))
	splits, _ := fs.Splits("/p")
	ps, err := fs.OpenSplitPoints(splits[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	a := ps.Columns()
	if b := ps.Columns(); a != b {
		t.Fatal("second Columns call rebuilt the transpose")
	}
	ps2, err := fs.OpenSplitPoints(splits[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if ps2.Columns() != a {
		t.Fatal("cached split re-open served a different columnar view")
	}
}

// TestColumnsInvalidation mirrors the row-major invalidation tests: the
// columnar view must turn over with its PointSplit on Create, Delete and
// SetSplitSize, while views held across the invalidation stay consistent
// snapshots.
func TestColumnsInvalidation(t *testing.T) {
	text, _ := pointFile(60, 2, 13)
	fs := New(0)
	fs.Create("/p", []byte(text))
	splits, _ := fs.Splits("/p")
	ps, err := fs.OpenSplitPoints(splits[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	old := ps.Columns()

	// Overwrite: a fresh decode must carry a fresh columnar view.
	fs.Create("/p", []byte("7 8\n9 10\n"))
	splits, _ = fs.Splits("/p")
	ps2, err := fs.OpenSplitPoints(splits[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	cs := ps2.Columns()
	if cs == old {
		t.Fatal("overwrite served the stale columnar view")
	}
	if cs.Len() != 2 || cs.Col(0)[0] != 7 || cs.Col(1)[1] != 10 {
		t.Fatalf("columnar view decoded stale contents: %d points", cs.Len())
	}
	// The pre-overwrite view stays a consistent snapshot.
	if old.Len() != 60 || old.Col(0)[0] != old.At(0)[0] {
		t.Fatal("old columnar snapshot mutated")
	}

	// Delete, then re-create: the fresh file gets a fresh view.
	fs.Delete("/p")
	if _, err := fs.OpenSplitPoints(splits[0], 2); err == nil {
		t.Fatal("decode of deleted file succeeded")
	}
	fs.Create("/p", []byte("1 2\n"))
	splits, _ = fs.Splits("/p")
	ps3, err := fs.OpenSplitPoints(splits[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if v := ps3.Columns(); v == cs || v.Len() != 1 {
		t.Fatalf("re-created file served a stale columnar view (%d points)", v.Len())
	}

	// SetSplitSize re-splits every file: new layout, new views.
	big, _ := pointFile(200, 2, 14)
	fs.Create("/q", []byte(big))
	qsplits, _ := fs.Splits("/q")
	qp, err := fs.OpenSplitPoints(qsplits[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	whole := qp.Columns()
	fs.SetSplitSize(256)
	qsplits, _ = fs.Splits("/q")
	qp2, err := fs.OpenSplitPoints(qsplits[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if re := qp2.Columns(); re == whole || re.Len() >= whole.Len() {
		t.Fatalf("SetSplitSize did not re-materialize the columnar view (%d vs %d points)",
			re.Len(), whole.Len())
	}
}

// TestColumnsConcurrent hammers Columns from many goroutines the way a
// map wave does — first touch races to transpose, later touches share the
// cached view — and is meant to run under -race.
func TestColumnsConcurrent(t *testing.T) {
	text, want := pointFile(800, 4, 15)
	fs := New(1 << 10)
	fs.Create("/p", []byte(text))
	splits, err := fs.Splits("/p")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	views := make([]*ColumnarSplit, 16*len(splits))
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			total := 0
			for si, sp := range splits {
				ps, err := fs.OpenSplitPoints(sp, 4)
				if err != nil {
					errs <- err
					return
				}
				cs := ps.Columns()
				views[w*len(splits)+si] = cs
				total += cs.Len()
			}
			if total != len(want) {
				errs <- fmt.Errorf("worker %d saw %d points, want %d", w, total, len(want))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All workers must have shared one view per split.
	for si := range splits {
		first := views[si]
		for w := 1; w < 16; w++ {
			if views[w*len(splits)+si] != first {
				t.Fatalf("split %d: worker %d built a duplicate columnar view", si, w)
			}
		}
	}
}
