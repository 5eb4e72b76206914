//go:build !amd64

package vec

// nearestBatchAccel and foldRowsAccel have no accelerated implementation
// on this architecture; NearestBatch and FoldRows always take the
// portable kernels.
func nearestBatchAccel([]Vector, []float64, int, []int32, []float64, *BatchScratch) bool {
	return false
}

func foldRowsAccel([]float64, []int64, []float64, int, []int32) bool { return false }
