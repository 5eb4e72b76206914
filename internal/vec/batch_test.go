package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// makeBatch builds n random points of dim coordinates in both layouts:
// row-major [][]float64 and dim-major flat (colflat[d*n+j]).
func makeBatch(n, dim int, seed int64) (rows []Vector, colflat []float64) {
	rng := rand.New(rand.NewSource(seed))
	rows = make([]Vector, n)
	colflat = make([]float64, dim*n)
	for j := range rows {
		p := make(Vector, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 50
			colflat[d*n+j] = p[d]
		}
		rows[j] = p
	}
	return rows, colflat
}

func makeCenters(k, dim int, seed int64) []Vector {
	rng := rand.New(rand.NewSource(seed))
	centers := make([]Vector, k)
	for i := range centers {
		c := make(Vector, dim)
		for d := range c {
			c[d] = rng.NormFloat64() * 50
		}
		centers[i] = c
	}
	return centers
}

// TestNearestBatchMatchesNearestIndex pins index and distance bit-identity
// against the scalar path on both sides of the early-exit threshold.
func TestNearestBatchMatchesNearestIndex(t *testing.T) {
	for _, tc := range []struct{ n, dim, k int }{
		{200, 3, 7}, {200, 10, 16}, {150, 16, 32}, {150, 33, 5}, {1, 8, 1},
	} {
		rows, colflat := makeBatch(tc.n, tc.dim, int64(tc.n))
		centers := makeCenters(tc.k, tc.dim, int64(tc.dim))
		idx := make([]int32, tc.n)
		dist := make([]float64, tc.n)
		NearestBatch(centers, colflat, tc.n, idx, dist, nil)
		for j, p := range rows {
			wi, wd := NearestIndex(p, centers)
			if int(idx[j]) != wi || dist[j] != wd {
				t.Fatalf("n=%d dim=%d k=%d point %d: batch (%d, %v), scalar (%d, %v)",
					tc.n, tc.dim, tc.k, j, idx[j], dist[j], wi, wd)
			}
		}
	}
}

// TestNearestBatchTies pins the tie rule: duplicated centers must resolve
// to the lowest index, as in NearestIndex. Five identical points put four
// through the accelerated tile path (on hardware that has one) and one
// through the scalar tail, so the rule is pinned on both.
func TestNearestBatchTies(t *testing.T) {
	const n = 5
	c := Vector{1, 2, 3, 4}
	centers := []Vector{Clone(c), Clone(c), Clone(c)}
	colflat := make([]float64, len(c)*n)
	for d, v := range c {
		for j := 0; j < n; j++ {
			colflat[d*n+j] = v // every point equal to every center
		}
	}
	idx := make([]int32, n)
	dist := make([]float64, n)
	NearestBatch(centers, colflat, n, idx, dist, nil)
	for j := 0; j < n; j++ {
		if idx[j] != 0 || dist[j] != 0 {
			t.Fatalf("point %d: tie resolved to (%d, %v), want (0, 0)", j, idx[j], dist[j])
		}
	}
}

// TestNearestBatchDegenerate covers the empty-center and all-non-finite
// cases that the mappers' best<0 guard depends on — again with enough
// points that the accelerated path processes some of them (its fold must
// never accept an Inf distance over the Inf sentinel).
func TestNearestBatchDegenerate(t *testing.T) {
	const n = 5
	idx := make([]int32, n)
	dist := make([]float64, n)
	colflat := []float64{1, 2, 3, 4, 5} // five 1-d points
	NearestBatch(nil, colflat, n, idx, dist, nil)
	for j := range idx {
		if idx[j] != -1 || !math.IsInf(dist[j], 1) {
			t.Fatalf("empty centers: point %d got (%d, %v)", j, idx[j], dist[j])
		}
	}
	huge := math.MaxFloat64
	centers := []Vector{{huge, -huge, huge, -huge}}
	far := Vector{-huge, huge, -huge, huge} // every squared diff overflows to +Inf
	colflat = make([]float64, len(far)*n)
	for d, v := range far {
		for j := 0; j < n; j++ {
			colflat[d*n+j] = v
		}
	}
	NearestBatch(centers, colflat, n, idx, dist, nil)
	for j := range idx {
		wi, wd := NearestIndex(far, centers)
		if int(idx[j]) != wi || dist[j] != wd {
			t.Fatalf("overflow case point %d: batch (%d, %v), scalar (%d, %v)", j, idx[j], dist[j], wi, wd)
		}
		if idx[j] != -1 {
			t.Fatalf("all-distances-Inf point %d should stay unassigned, got %d", j, idx[j])
		}
	}
}

func TestBatchShapePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"short colflat": func() {
			NearestBatch([]Vector{{1, 2}}, []float64{1, 2, 3}, 2, make([]int32, 2), make([]float64, 2), nil)
		},
		"short idx": func() {
			NearestBatch([]Vector{{1}}, []float64{1, 2}, 2, make([]int32, 1), make([]float64, 2), nil)
		},
		"short dist": func() {
			NearestBatch([]Vector{{1}}, []float64{1, 2}, 2, make([]int32, 2), make([]float64, 1), nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// benchNearest compares the scalar per-point assignment loop against one
// fused batch call. Both report ns/dist: nanoseconds per point-center
// distance, the kernel layer's unit.
func benchNearest(b *testing.B, n, dim, k int) {
	rows, colflat := makeBatch(n, dim, 1)
	centers := makeCenters(k, dim, 2)
	idx := make([]int32, n)
	dist := make([]float64, n)
	var s BatchScratch
	perDist := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(n)*float64(k)), "ns/dist")
	}
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, p := range rows {
				bi, bd := NearestIndex(p, centers)
				idx[j], dist[j] = int32(bi), bd
			}
		}
		perDist(b)
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NearestBatch(centers, colflat, n, idx, dist, &s)
		}
		perDist(b)
	})
}

func BenchmarkNearestBatch(b *testing.B) {
	for _, tc := range []struct{ n, dim, k int }{
		{8192, 16, 4}, {8192, 16, 32}, {8192, 16, 64},
		{8192, 32, 32}, {8192, 10, 16}, {8192, 64, 32},
	} {
		b.Run(benchName(tc.n, tc.dim, tc.k), func(b *testing.B) { benchNearest(b, tc.n, tc.dim, tc.k) })
	}
}

// BenchmarkFoldRows compares the per-point WeightedPoint.Merge loop the
// assignment mappers used to run against one FoldRows call over the same
// split and assignment, in ns/pt.
func BenchmarkFoldRows(b *testing.B) {
	const n, dim, k = 8192, 16, 32
	_, colflat := makeBatch(n, dim, 1)
	rows := make([]float64, n*dim)
	for j := 0; j < n; j++ {
		for d := 0; d < dim; d++ {
			rows[j*dim+d] = colflat[d*n+j]
		}
	}
	idx := make([]int32, n)
	dist := make([]float64, n)
	NearestBatch(makeCenters(k, dim, 2), colflat, n, idx, dist, nil)
	perPoint := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/pt")
	}
	b.Run(benchName(n, dim, k)+"/merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			accs := make([]WeightedPoint, k)
			for j, c := range idx {
				accs[c].Merge(WeightedPoint{Sum: rows[j*dim : (j+1)*dim], Count: 1})
			}
		}
		perPoint(b)
	})
	b.Run(benchName(n, dim, k)+"/fold", func(b *testing.B) {
		sums := make([]float64, k*dim)
		counts := make([]int64, k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(sums)
			clear(counts)
			FoldRows(sums, counts, rows, dim, idx)
		}
		perPoint(b)
	})
}

func benchName(n, dim, k int) string {
	return fmt.Sprintf("n=%d/d=%d/k=%d", n, dim, k)
}

// TestFoldRowsMatchesMerge pins FoldRows — the dispatched kernel and the
// portable loop — to a per-row WeightedPoint.Merge bit for bit, for every
// dim from 1 to 20 (every tail of the 8-wide kernel), with repeated and
// interleaved indices and coordinates that include −0, NaNs of several
// payloads and signs, ±Inf and subnormals.
func TestFoldRowsMatchesMerge(t *testing.T) {
	special := []float64{
		math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0123),
		math.Float64frombits(0xfff8_0000_0000_0456), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 2.2e-310,
	}
	rng := rand.New(rand.NewSource(9))
	for dim := 1; dim <= 20; dim++ {
		const n, k = 61, 5
		rows := make([]float64, n*dim)
		for i := range rows {
			if rng.Intn(4) == 0 {
				rows[i] = special[rng.Intn(len(special))]
			} else {
				rows[i] = rng.NormFloat64() * 1e3
			}
		}
		idx := make([]int32, n)
		for j := range idx {
			switch {
			case j < 20: // runs of one center
				idx[j] = int32(j / 7)
			case j < 40: // interleaved
				idx[j] = int32(j % 3)
			default:
				idx[j] = int32(rng.Intn(k - 1)) // center k-1 stays empty
			}
		}
		want := make([]WeightedPoint, k)
		for j, c := range idx {
			want[c].Merge(WeightedPoint{Sum: rows[j*dim : (j+1)*dim], Count: 1})
		}
		for name, fold := range map[string]func([]float64, []int64, []float64, int, []int32){
			"FoldRows": FoldRows, "portable": foldRowsGo,
		} {
			sums := make([]float64, k*dim)
			counts := make([]int64, k)
			fold(sums, counts, rows, dim, idx)
			for c := range want {
				if counts[c] != want[c].Count {
					t.Fatalf("%s dim %d center %d: count %d, Merge %d", name, dim, c, counts[c], want[c].Count)
				}
				for d := 0; d < dim; d++ {
					w := 0.0
					if want[c].Sum != nil {
						w = want[c].Sum[d]
					}
					if g := sums[c*dim+d]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s dim %d center %d coordinate %d: %v (%#x), Merge %v (%#x)",
							name, dim, c, d, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}

func TestFoldRowsPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative index": func() { FoldRows(make([]float64, 2), make([]int64, 1), []float64{1, 2}, 2, []int32{-1}) },
		"index past k":   func() { FoldRows(make([]float64, 2), make([]int64, 1), []float64{1, 2}, 2, []int32{1}) },
		"short rows":     func() { FoldRows(make([]float64, 2), make([]int64, 1), []float64{1}, 2, []int32{0}) },
		"short sums":     func() { FoldRows(make([]float64, 1), make([]int64, 1), []float64{1, 2}, 2, []int32{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
