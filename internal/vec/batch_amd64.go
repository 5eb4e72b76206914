//go:build amd64

package vec

// SIMD dispatch for the batched nearest-center kernel and the row fold.
// Both assembly nearest-center kernels (batch_amd64.s) vectorize across
// points — four points per ymm register under AVX2, eight per zmm under
// AVX-512, one SIMD slot each — so every point's four lane sums still
// accumulate one dimension at a time in Dist2's scalar order, and no FMA
// is emitted. That is what keeps the SIMD results bit-identical to the
// scalar kernel (see the package contract in batch.go).

// nearestTileAVX2 processes one tile of m points (m > 0, multiple of 4)
// against one center: for each tile point jj (coordinate d of point jj at
// col[d*stride+jj]) it computes d2 = Dist2(point jj, center) and folds
// d2 < dist[jj] into dist[jj]/idxf[jj], writing cidx (the center's index
// as a float64) on improvement.
//
//go:noescape
func nearestTileAVX2(center *float64, dim int, col *float64, stride, m int, cidx float64, dist, idxf *float64)

// nearestGroupsAVX512 assigns m points (m > 0, multiple of 8) against
// blocks·4 centers packed by packBlocks: for each point jj it folds
// Dist2(point jj, center c) < dist[jj] over every center in order, and
// writes the winner's index to idx[jj] (-1 when none beats the +Inf the
// caller seeded dist with).
//
//go:noescape
func nearestGroupsAVX512(cblk *float64, dim, blocks int, col *float64, stride, m int, dist *float64, idx *int32)

// foldRowsAVX512 is FoldRows over n rows, with every index already
// checked.
//
//go:noescape
func foldRowsAVX512(sums *float64, counts *int64, rows *float64, dim int, idx *int32, n int)

// cpuid executes the CPUID instruction for the given leaf/subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (the OS-enabled SIMD state).
func xgetbv() (eax, edx uint32)

// useAVX2 reports whether the CPU and OS support the AVX2 tile kernel.
var useAVX2 = detectAVX2()

// useAVX512 reports whether the CPU and OS additionally support the
// 8-wide AVX-512 kernels (AVX512F plus OS-managed opmask/zmm state).
var useAVX512 = detectAVX512()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves/restores XMM and YMM state.
	if lo, _ := xgetbv(); lo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

func detectAVX512() bool {
	if !useAVX2 { // implies leaf 7 and OSXSAVE are present
		return false
	}
	// XCR0 bits 5-7 on top of XMM/YMM: the OS saves/restores opmask,
	// ZMM_Hi256 and Hi16_ZMM state.
	if lo, _ := xgetbv(); lo&0xe6 != 0xe6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<16) != 0 // AVX512F
}

// nearestBatchAccel runs the widest available kernel — the four-center
// AVX-512 kernel, or the AVX2 tile kernel — over the aligned prefix of
// the split and the scalar kernel over the few remaining points. It
// reports false (caller falls back to the portable kernel) when the
// hardware has no SIMD kernel or the split is too small for one.
func nearestBatchAccel(centers []Vector, colflat []float64, n int, idx []int32, dist []float64, s *BatchScratch) bool {
	if !useAVX2 || n < 4 {
		return false
	}
	dim := len(centers[0])
	var m int
	if useAVX512 && n >= 8 {
		m = n &^ 7
		cblk := s.packBlocks(centers)
		nearestGroupsAVX512(&cblk[0], dim, len(cblk)/(4*dim), &colflat[0], n, m, &dist[0], &idx[0])
	} else {
		m = n &^ 3
		idxf := s.idxfFor(n)
		for j := range idxf {
			idxf[j] = -1
		}
		for t := 0; t < m; t += nearestTilePoints {
			tl := nearestTilePoints
			if m-t < tl {
				tl = m - t
			}
			for c := range centers {
				nearestTileAVX2(&centers[c][0], dim, &colflat[t], n, tl, float64(c), &dist[t], &idxf[t])
			}
		}
		for j := 0; j < m; j++ {
			idx[j] = int32(idxf[j])
		}
	}
	if m < n {
		nearestBatchTail(centers, colflat, n, m, idx, dist, s)
	}
	return true
}

// packBlocks copies centers into the scratch in the layout of the
// four-center kernel: block b holds centers 4b..4b+3 interleaved by
// dimension, coordinate d of center 4b+c at (b·dim + d)·4 + c. A count
// that is not a multiple of 4 is padded by repeating the last center: the
// copy's distance equals the original's bit for bit, so under the strict
// less-than fold it never wins, and no padded index is ever written.
func (s *BatchScratch) packBlocks(centers []Vector) []float64 {
	k, dim := len(centers), len(centers[0])
	size := (k + 3) / 4 * 4 * dim
	if cap(s.blocks) < size {
		s.blocks = make([]float64, size)
	}
	buf := s.blocks[:size]
	for b := 0; b*4 < k; b++ {
		blk := buf[b*4*dim : (b+1)*4*dim]
		for c := 0; c < 4; c++ {
			center := centers[min(4*b+c, k-1)]
			if len(center) != dim {
				panic("vec: NearestBatch centers differ in dimensionality")
			}
			for d, v := range center {
				blk[d*4+c] = v
			}
		}
	}
	return buf
}

// foldRowsAccel runs FoldRows' AVX-512 kernel when the CPU has one.
func foldRowsAccel(sums []float64, counts []int64, rows []float64, dim int, idx []int32) bool {
	if !useAVX512 || len(idx) == 0 {
		return false
	}
	foldRowsAVX512(&sums[0], &counts[0], &rows[0], dim, &idx[0], len(idx))
	return true
}
