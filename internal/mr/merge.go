package mr

// Reduce-side merge.
//
// Each map task hands the reduce phase one key-sorted run per partition.
// The engine's contract — relied on by the G-means candidate sampling for
// reproducible runs — is that a reduce task sees its records ordered by
// key, with ties ordered by map-task id and, within one task, by emission
// order. The historical implementation concatenated the runs in task order
// and stable-sorted the result (O(n log n) comparisons over the full
// record count). MergeRuns produces the identical sequence with a k-way
// heap merge over the already-sorted runs: O(n log r) comparisons for r
// runs, and no re-examination of the order that already exists inside each
// run. The old formulation survives as the oracle of the merge tests.

// runHeap is a binary min-heap of run indices, ordered by each run's
// current head key with the run index itself as the tie-break. Keeping the
// comparison on (key, run) is exactly what makes the merge reproduce
// concat + stable sort: among equal keys the lowest map-task id wins, and
// records of one task stay in emission order because only the head of each
// run is ever eligible.
type runHeap struct {
	runs [][]KV // remaining (unconsumed) suffix of each run
	heap []int  // run indices, heap-ordered
}

func (h *runHeap) less(a, b int) bool {
	ka, kb := h.runs[a][0].Key, h.runs[b][0].Key
	if ka != kb {
		return ka < kb
	}
	return a < b
}

func (h *runHeap) push(r int) {
	h.heap = append(h.heap, r)
	i := len(h.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[parent]) {
			break
		}
		h.heap[i], h.heap[parent] = h.heap[parent], h.heap[i]
		i = parent
	}
}

// fix restores the heap property at the root after its run's head advanced
// (or the run emptied, in which case the root is removed first).
func (h *runHeap) fix() {
	n := len(h.heap)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.heap[l], h.heap[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.heap[r], h.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.heap[i], h.heap[smallest] = h.heap[smallest], h.heap[i]
		i = smallest
	}
}

// MergeRuns merges per-task key-sorted runs into one key-sorted sequence,
// breaking key ties by run index and preserving within-run order — the
// byte-for-byte order concatenate + stable sort produces. Runs must
// individually be key-sorted (the map phase guarantees this); empty or nil
// runs are fine.
func MergeRuns(runs [][]KV) []KV {
	total := 0
	live := 0
	lastLive := -1
	for i, run := range runs {
		total += len(run)
		if len(run) > 0 {
			live++
			lastLive = i
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]KV, 0, total)
	if live == 1 {
		return append(out, runs[lastLive]...)
	}
	h := &runHeap{runs: make([][]KV, len(runs)), heap: make([]int, 0, live)}
	copy(h.runs, runs)
	for i, run := range h.runs {
		if len(run) > 0 {
			h.push(i)
		}
	}
	for len(h.heap) > 0 {
		r := h.heap[0]
		out = append(out, h.runs[r][0])
		h.runs[r] = h.runs[r][1:]
		if len(h.runs[r]) == 0 {
			last := len(h.heap) - 1
			h.heap[0] = h.heap[last]
			h.heap = h.heap[:last]
		}
		h.fix()
	}
	return out
}
