package dfs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
)

// hostilePoints draws n points of dim coordinates from the values text
// round-trips get wrong first: signed zeros, subnormals, magnitudes near
// the float64 limits, integers, mixed magnitudes within one point, and
// the non-finite values (a NaN with a non-default payload included).
func hostilePoints(rng *rand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for d := range p {
			switch rng.Intn(10) {
			case 0:
				p[d] = math.Copysign(0, -1)
			case 1:
				p[d] = math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal or +0
			case 2:
				p[d] = (rng.Float64()*2 - 1) * 1e300
			case 3:
				p[d] = (rng.Float64()*2 - 1) * 1e-300
			case 4:
				p[d] = float64(rng.Intn(2001) - 1000)
			case 5:
				p[d] = []float64{math.Inf(1), math.Inf(-1), math.NaN(),
					math.Float64frombits(0x7ff0_dead_beef_0001)}[rng.Intn(4)]
			default:
				p[d] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(41)-20))
			}
		}
		pts[i] = p
	}
	return pts
}

// formatReference renders points the way the text format is defined —
// FormatFloat 'g' -1 joined by spaces, one record per line — independent
// of the writer's chunked formatting.
func formatReference(pts [][]float64) []byte {
	var b bytes.Buffer
	for _, p := range pts {
		for d, x := range p {
			if d > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// writePoints stages pts at path through a PointWriter whose chunks hold
// chunk points, so a small test still spans many concurrent chunks.
func writePoints(fs *FS, path string, dim, chunk int, pts [][]float64) {
	w := fs.PointWriter(path, dim)
	w.chunk = chunk
	for _, p := range pts {
		w.Append(p)
	}
	w.Close()
}

// assertSplitsMatch opens every split in sps on the written-from-points
// FS and on the cold-parsing FS and requires identical views: length,
// logical bytes, row bits and Columns() bits. It also requires that the
// written FS sliced its kept points rather than parsing.
func assertSplitsMatch(t *testing.T, written, cold *FS, sps []Split, dim int) {
	t.Helper()
	for _, sp := range sps {
		pw, err := written.OpenSplitPoints(sp, dim)
		if err != nil {
			t.Fatalf("written %+v: %v", sp, err)
		}
		pc, err := cold.OpenSplitPoints(sp, dim)
		if err != nil {
			t.Fatalf("cold %+v: %v", sp, err)
		}
		if pw.Len() != pc.Len() || pw.Bytes() != pc.Bytes() {
			t.Fatalf("split %+v: written Len/Bytes %d/%d, cold %d/%d", sp, pw.Len(), pw.Bytes(), pc.Len(), pc.Bytes())
		}
		if !sameBits(pw.flat, pc.flat) {
			t.Fatalf("split %+v: row bits differ", sp)
		}
		if !sameBits(pw.Columns().Flat(), pc.Columns().Flat()) {
			t.Fatalf("split %+v: column bits differ", sp)
		}
		if pw.Len() > 0 {
			written.mu.RLock()
			wp := written.files[sp.Path].points
			written.mu.RUnlock()
			if wp == nil || !aliases(pw.flat, wp.flat) {
				t.Fatalf("split %+v was parsed, not sliced from the written points", sp)
			}
		}
	}
	if written.BytesRead() != cold.BytesRead() {
		t.Fatalf("BytesRead: written %d, cold %d", written.BytesRead(), cold.BytesRead())
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// aliases reports whether sub lies inside whole's backing array.
func aliases(sub, whole []float64) bool {
	for i := range whole {
		if &whole[i] == &sub[0] {
			return true
		}
	}
	return false
}

// TestPointWriterMatchesColdParse is the writer's property test: for
// random hostile points at several dims and split layouts, a file staged
// through PointWriter is byte-identical to the reference formatting under
// any GOMAXPROCS, and every split it serves — canonical, after a
// SetSplitSize, or from a stale descriptor — equals the cold parse of a
// Created copy of the same bytes, down to the float bits and BytesRead.
func TestPointWriterMatchesColdParse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(14))
	for _, dim := range []int{1, 5, 16} {
		pts := hostilePoints(rng, 120, dim)
		want := formatReference(pts)
		record := len(want) / len(pts)
		for _, ss := range []int{3, 3 * record, len(want)/5 + 1, len(want) + 1} {
			t.Run(fmt.Sprintf("dim=%d/split=%d", dim, ss), func(t *testing.T) {
				var written *FS
				for _, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					for _, chunk := range []int{1, 7, 1000} {
						fs := New(ss)
						writePoints(fs, "/p", dim, chunk, pts)
						got, _ := fs.Contents("/p")
						if !bytes.Equal(got, want) {
							t.Fatalf("GOMAXPROCS=%d chunk=%d: written bytes differ from the reference", procs, chunk)
						}
						written = fs
					}
				}
				cold := New(ss)
				cold.Create("/p", want)
				if written.BytesWritten() != cold.BytesWritten() {
					t.Fatalf("BytesWritten: written %d, cold %d", written.BytesWritten(), cold.BytesWritten())
				}
				sps, err := written.Splits("/p")
				if err != nil {
					t.Fatal(err)
				}
				assertSplitsMatch(t, written, cold, sps, dim)
				assertSplitsMatch(t, written, cold, sps, dim) // cached second scan

				// A re-split keeps the written points; descriptors of the old
				// layout are now stale and bypass the cache on both sides.
				resplit := ss*2 + 1
				written.SetSplitSize(resplit)
				cold.SetSplitSize(resplit)
				assertSplitsMatch(t, written, cold, sps, dim)
				fresh, err := written.Splits("/p")
				if err != nil {
					t.Fatal(err)
				}
				assertSplitsMatch(t, written, cold, fresh, dim)
			})
		}
	}
}

// TestPointWriterOffsetsMatchContents checks the measured layout against
// the text itself: on hostile coordinates, and on the values where a
// shortest-digit length is easiest to get wrong, every kept record start
// is the offset of a line of Contents and the kept size is its length.
func TestPointWriterOffsetsMatchContents(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	edges := []float64{
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), 1e-5, 1e-4, 999999, 1e6,
		1e21, 1e22, 1e23, 1 << 53, 1<<53 + 2, 9007199254740993, 0.1, 1.0 / 3,
		math.Nextafter(1e-5, 0), math.Nextafter(1e6, 0), math.Nextafter(100, 200),
		math.Float64frombits(0xfff8_0000_0000_0001),
	}
	for _, dim := range []int{1, 3, 16} {
		pts := hostilePoints(rng, 300, dim)
		for i := range pts {
			if i%3 == 0 {
				pts[i][rng.Intn(dim)] = edges[rng.Intn(len(edges))]
			}
		}
		fs := New(1 << 10)
		writePoints(fs, "/p", dim, 7, pts)
		text, err := fs.Contents("/p")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(text, formatReference(pts)) {
			t.Fatalf("dim=%d: Contents differs from the reference formatting", dim)
		}
		fs.mu.RLock()
		f := fs.files["/p"]
		fs.mu.RUnlock()
		if f.size != int64(len(text)) {
			t.Fatalf("dim=%d: kept size %d, text %d bytes", dim, f.size, len(text))
		}
		var want []int64
		for off := 0; off < len(text); {
			want = append(want, int64(off))
			off += bytes.IndexByte(text[off:], '\n') + 1
		}
		if !slices.Equal(f.points.starts, want) {
			t.Fatalf("dim=%d: kept record starts differ from the line offsets of Contents", dim)
		}
	}
}

// TestPointWriterCreateDropsWrittenPoints pins the invalidation rules: a
// Create over a written path replaces its points with the new bytes'
// parse, and a Delete drops them with the file.
func TestPointWriterCreateDropsWrittenPoints(t *testing.T) {
	fs := New(64)
	writePoints(fs, "/p", 2, 3, [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	sps, _ := fs.Splits("/p")
	if _, err := fs.OpenSplitPoints(sps[0], 2); err != nil { // populate the cache
		t.Fatal(err)
	}

	fs.Create("/p", []byte("9 10\n11 12\n"))
	got := readAllSplitPoints(t, fs, "/p", 2)
	if len(got) != 2 || got[0][0] != 9 || got[1][1] != 12 {
		t.Fatalf("after Create the split served %v, want the new bytes' points", got)
	}
	fs.mu.RLock()
	kept := fs.files["/p"].points
	fs.mu.RUnlock()
	if kept != nil {
		t.Fatal("Create kept the previously written points")
	}

	writePoints(fs, "/q", 1, 2, [][]float64{{1}, {2}, {3}})
	fs.Delete("/q")
	fs.Create("/q", []byte("4\n"))
	if got := readAllSplitPoints(t, fs, "/q", 1); len(got) != 1 || got[0][0] != 4 {
		t.Fatalf("after Delete and Create the split served %v, want [[4]]", got)
	}
}

// TestPointWriterOtherDimParses checks that asking for a dim other than
// the written one is an error, as a parse of the file's text would be.
func TestPointWriterOtherDimParses(t *testing.T) {
	fs := New(1 << 10)
	writePoints(fs, "/p", 3, 2, [][]float64{{1, 2, 3}, {4, 5, 6}})
	sps, _ := fs.Splits("/p")
	if _, err := fs.OpenSplitPoints(sps[0], 2); err == nil {
		t.Fatal("3-dimensional records served at dim 2")
	}
}

// TestWrittenFileKeepsNoText checks that a written file holds points and
// offsets but no text, that its size and Contents are still those of the
// text, and that ReplicaSplit reads through the cache without accounting
// while OpenSplitPoints accounts every scan.
func TestWrittenFileKeepsNoText(t *testing.T) {
	pts := hostilePoints(rand.New(rand.NewSource(21)), 200, 3)
	want := formatReference(pts)
	fs := New(len(want)/4 + 1)
	writePoints(fs, "/p", 3, 16, pts)

	fs.mu.RLock()
	f := fs.files["/p"]
	fs.mu.RUnlock()
	if f.data != nil || f.points == nil {
		t.Fatalf("written file keeps %d text bytes, points %v", len(f.data), f.points != nil)
	}
	size, err := fs.Size("/p")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.Contents("/p")
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(want)) || fs.BytesWritten() != size || int64(len(got)) != size {
		t.Fatalf("Size %d, BytesWritten %d, len(Contents) %d, text %d", size, fs.BytesWritten(), len(got), len(want))
	}
	if !bytes.Equal(got, want) {
		t.Fatal("Contents differs from the FormatPoint lines")
	}

	sps, err := fs.Splits("/p")
	if err != nil {
		t.Fatal(err)
	}
	var shares int64
	for _, sp := range sps {
		rp, err := fs.ReplicaSplit(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		if fs.BytesRead() != shares {
			t.Fatalf("ReplicaSplit of split %d moved BytesRead to %d", sp.Index, fs.BytesRead())
		}
		ps, err := fs.OpenSplitPoints(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		if ps != rp {
			t.Fatalf("split %d: OpenSplitPoints did not serve the cached replica split", sp.Index)
		}
		shares += ps.Bytes()
		if fs.BytesRead() != shares {
			t.Fatalf("OpenSplitPoints of split %d: BytesRead %d, want %d", sp.Index, fs.BytesRead(), shares)
		}
	}
	if shares != size {
		t.Fatalf("split shares sum to %d, file size %d", shares, size)
	}
}

// TestFileWriterCloseTakesBuffer checks that FileWriter.Close commits
// its buffer without a copy and that writing after Close cannot reach the
// committed file.
func TestFileWriterCloseTakesBuffer(t *testing.T) {
	fs := New(0)
	w := fs.Writer("/f")
	w.WriteString("1 2\n")
	w.Close()
	w.WriteString("3 4\n")
	if got, _ := fs.Contents("/f"); string(got) != "1 2\n" {
		t.Fatalf("file holds %q after a write past Close", got)
	}
	if fs.BytesWritten() != 4 {
		t.Fatalf("BytesWritten = %d, want 4", fs.BytesWritten())
	}
}
