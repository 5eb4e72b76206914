//go:build amd64

package vec

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestNearestBatchPathsAgree pins the three kernel implementations —
// portable, AVX2 tile, AVX-512 four-center — bit-identical to each other
// and to NearestIndex on the hardware that has them, by running the same
// batches with the dispatch flags progressively disabled. The cases cover
// the 4- and 8-point alignment tails, sub-width batches, every padding
// remainder of the four-center blocks (k = 1..9), every lane tail (dims
// 1..20), duplicate centers at each position of a block and across blocks
// (including the padded copies of the last center), and NaN and ±Inf
// coordinates down to the all-non-finite -1/+Inf outcome, each path
// reusing one scratch for every batch. It logs the paths it compared, so
// a run on hardware without AVX-512 says so.
func TestNearestBatchPathsAgree(t *testing.T) {
	if !useAVX2 {
		t.Skip("no SIMD kernel on this machine")
	}
	saveAVX2, saveAVX512 := useAVX2, useAVX512
	defer func() { useAVX2, useAVX512 = saveAVX2, saveAVX512 }()
	paths := []string{"portable", "avx2"}
	if saveAVX512 {
		paths = append(paths, "avx512")
	}
	t.Logf("kernel paths compared: %s", strings.Join(paths, ", "))

	// One scratch per path, reused by every call across shapes, so state
	// left in a scratch by one batch must not leak into the next.
	scratch := make(map[string]*BatchScratch, len(paths))
	for _, path := range paths {
		scratch[path] = &BatchScratch{}
	}
	agree := func(name string, centers []Vector, colflat []float64, n int) (idx []int32, dist []float64) {
		t.Helper()
		dim := len(colflat) / n
		for _, path := range paths {
			useAVX2, useAVX512 = path != "portable", path == "avx512"
			gi := make([]int32, n)
			gd := make([]float64, n)
			NearestBatch(centers, colflat, n, gi, gd, scratch[path])
			p := make(Vector, dim)
			for j := 0; j < n; j++ {
				for d := range p {
					p[d] = colflat[d*n+j]
				}
				wi, wd := NearestIndex(p, centers)
				if int(gi[j]) != wi || math.Float64bits(gd[j]) != math.Float64bits(wd) {
					t.Fatalf("%s n=%d dim=%d k=%d point %d: %s (%d, %v), NearestIndex (%d, %v)",
						name, n, dim, len(centers), j, path, gi[j], gd[j], wi, wd)
				}
			}
			idx, dist = gi, gd
		}
		return idx, dist
	}

	rng := rand.New(rand.NewSource(42))
	random := func(n, dim, k int) ([]Vector, []float64) {
		colflat := make([]float64, n*dim)
		for i := range colflat {
			colflat[i] = rng.Float64()*200 - 50
		}
		centers := make([]Vector, k)
		for i := range centers {
			centers[i] = make(Vector, dim)
			for d := range centers[i] {
				centers[i][d] = rng.Float64() * 100
			}
		}
		return centers, colflat
	}

	for _, tc := range []struct{ n, dim, k int }{
		{256, 16, 32}, {257, 16, 32}, {263, 7, 19}, {8, 4, 3}, {12, 5, 9},
		{7, 16, 32}, {5, 3, 2}, {64, 1, 4}, {100, 2, 300},
	} {
		centers, colflat := random(tc.n, tc.dim, tc.k)
		agree("shape", centers, colflat, tc.n)
	}
	for k := 1; k <= 9; k++ {
		for dim := 1; dim <= 20; dim++ {
			centers, colflat := random(21, dim, k)
			agree("remainder", centers, colflat, 21)
		}
	}

	// Duplicates: points drawn around center i, and center j > i a copy of
	// it, for every pair of an 8- and a 7-center set (the latter padded
	// with two copies of center 6). Every tie must go to the lower index.
	for _, k := range []int{7, 8} {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				const n, dim = 19, 6
				centers, colflat := random(n, dim, k)
				centers[j] = Clone(centers[i])
				for d := 0; d < dim; d++ {
					for p := 0; p < n; p++ {
						colflat[d*n+p] = centers[i][d] + rng.NormFloat64()
					}
				}
				idx, _ := agree("duplicate", centers, colflat, n)
				for p, c := range idx {
					if int(c) == j {
						t.Fatalf("k=%d: point %d chose duplicate %d over %d", k, p, j, i)
					}
				}
			}
		}
	}
	for k := 5; k <= 7; k++ { // padded: the copies of center k-1 tie with it
		const n, dim = 16, 5
		centers, colflat := random(n, dim, k)
		for d := 0; d < dim; d++ {
			for p := 0; p < n; p++ {
				colflat[d*n+p] = centers[k-1][d]
			}
		}
		idx, _ := agree("padding", centers, colflat, n)
		for p, c := range idx {
			if int(c) != k-1 {
				t.Fatalf("k=%d: point %d on center %d assigned to %d", k, p, k-1, c)
			}
		}
	}

	// Non-finite coordinates: a NaN anywhere in a point makes every
	// distance NaN, so the point stays unassigned; ±Inf in a center makes
	// that center's distance +Inf (or NaN) and it never wins.
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for dim := 1; dim <= 9; dim++ {
		const n, k = 24, 6
		centers, colflat := random(n, dim, k)
		for i := range colflat {
			if rng.Intn(8) == 0 {
				colflat[i] = special[rng.Intn(len(special))]
			}
		}
		centers[rng.Intn(k)][rng.Intn(dim)] = special[rng.Intn(len(special))]
		agree("non-finite", centers, colflat, n)
		for i := range colflat {
			colflat[i] = math.NaN()
		}
		idx, dist := agree("all-NaN", centers, colflat, n)
		for p := range idx {
			if idx[p] != -1 || !math.IsInf(dist[p], 1) {
				t.Fatalf("dim %d: all-NaN point %d got (%d, %v), want (-1, +Inf)", dim, p, idx[p], dist[p])
			}
		}
	}
}
