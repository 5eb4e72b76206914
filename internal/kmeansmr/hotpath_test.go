package kmeansmr

import (
	"sync"
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/vec"
)

// referenceIterate folds one k-means iteration the textbook way, outside
// the engine: for each split in task order, the same batched assignment,
// then every point merged into a fresh per-center vec.WeightedPoint in
// input order; then the per-task sums merged in task-id order, the
// reduce-side merge order. It returns the per-center totals and the
// shuffle volume one record per non-empty (task, center) would cost.
func referenceIterate(t *testing.T, env Env, centers []vec.Vector) (totals []vec.WeightedPoint, records, bytes int64) {
	t.Helper()
	splits, err := env.FS.Splits(env.Input)
	if err != nil {
		t.Fatal(err)
	}
	totals = make([]vec.WeightedPoint, len(centers))
	var batch BatchAssigner
	for _, sp := range splits {
		ps, err := env.FS.OpenSplitPoints(sp, env.Dim)
		if err != nil {
			t.Fatal(err)
		}
		cols := ps.Columns()
		task := make([]vec.WeightedPoint, len(centers))
		for j, best := range batch.Assign(centers, cols) {
			task[best].Merge(vec.WeightedPoint{Sum: cols.At(j), Count: 1})
		}
		for c, wp := range task {
			if wp.Count == 0 {
				continue
			}
			totals[c].Merge(wp)
			records++
			bytes += int64(mr.WeightedPointValue{WeightedPoint: wp}.ByteSize()) + 8
		}
	}
	return totals, records, bytes
}

// TestIterateCachedMatchesLegacyExactly is the contract of in-mapper
// combining: folding a split's points into per-center sums with one
// vec.FoldRows call must produce bit-identical centers and sizes to
// merging one point at a time in input order per (task, center) and the
// task sums in task-id order — and ship one record per non-empty (task,
// center), the shuffle volume a spill combiner would have left.
func TestIterateCachedMatchesLegacyExactly(t *testing.T) {
	env, ds := testEnv(t, dataset.Spec{K: 6, Dim: 5, N: 3000, MinSeparation: 15, Seed: 21}, 8<<10)
	initial := vec.CloneAll(ds.Centers)
	for _, c := range initial {
		c[0] += 1.5 // force real movement
	}

	cached, err := Iterate(env, initial)
	if err != nil {
		t.Fatal(err)
	}
	totals, records, bytes := referenceIterate(t, env, initial)
	for c, wp := range totals {
		want := initial[c]
		if wp.Count > 0 {
			want = wp.Centroid()
		}
		if !vec.Equal(cached.Centers[c], want) {
			t.Errorf("center %d: in-mapper %v != reference %v", c, cached.Centers[c], want)
		}
		if cached.Sizes[c] != wp.Count {
			t.Errorf("size %d: in-mapper %d != reference %d", c, cached.Sizes[c], wp.Count)
		}
	}
	n := int64(len(ds.Points))
	for counter, want := range map[string]int64{
		CounterDistances:         n * int64(len(initial)),
		CounterPoints:            n,
		mr.CounterShuffleRecords: records,
		mr.CounterShuffleBytes:   bytes,
	} {
		if got := cached.Job.Counters.Get(counter); got != want {
			t.Errorf("%s: in-mapper %d != reference %d", counter, got, want)
		}
	}
}

// TestIterateCachedByteAccounting verifies that every cached iteration
// still pays the paper's logical I/O: one dataset read and the full text
// byte volume per pass, identical to the parse path.
func TestIterateCachedByteAccounting(t *testing.T) {
	env, ds := testEnv(t, dataset.Spec{K: 3, Dim: 4, N: 1200, MinSeparation: 15, Seed: 22}, 4<<10)
	size, err := env.FS.Size(env.Input)
	if err != nil {
		t.Fatal(err)
	}
	env.FS.ResetCounters()
	for it := 0; it < 3; it++ {
		if _, err := Iterate(env, ds.Centers); err != nil {
			t.Fatal(err)
		}
	}
	if got := env.FS.DatasetReads(); got != 3 {
		t.Errorf("dataset reads = %d, want 3 (one per iteration)", got)
	}
	if got := env.FS.BytesRead(); got != 3*size {
		t.Errorf("bytes read = %d, want 3×%d — the cache must not change logical I/O", got, size)
	}
}

// TestIterateConcurrentEnvs runs cached iterations from several goroutines
// over one shared FS (distinct and shared inputs) to exercise the decode
// cache under -race together with the engine's own parallelism.
func TestIterateConcurrentEnvs(t *testing.T) {
	ds, err := dataset.Generate(dataset.Spec{K: 4, Dim: 3, N: 2000, MinSeparation: 20, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(4 << 10)
	ds.WriteToDFS(fs, "/data/a.txt")
	ds.WriteToDFS(fs, "/data/b.txt")
	cluster := mr.DefaultCluster().WithNodes(2)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		input := "/data/a.txt"
		if w%2 == 1 {
			input = "/data/b.txt"
		}
		wg.Add(1)
		go func(input string) {
			defer wg.Done()
			env := Env{FS: fs, Cluster: cluster, Input: input, Dim: 3}
			if _, err := Iterate(env, ds.Centers); err != nil {
				errs <- err
			}
		}(input)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRunMultiShuffleBoundedByCenters pins the multi-k in-mapper
// combining invariant the same way: per task and candidate k, at most one
// record per center crosses the shuffle.
func TestRunMultiShuffleBoundedByCenters(t *testing.T) {
	env, _ := testEnv(t, dataset.Spec{K: 3, Dim: 2, N: 2000, MinSeparation: 20, Seed: 24}, 2<<10)
	res, err := RunMulti(MultiConfig{Env: env, KMin: 1, KMax: 4, Iterations: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	splits, err := env.FS.Splits(env.Input)
	if err != nil {
		t.Fatal(err)
	}
	// Σ_k k = 10 center slots; 2 iterations over len(splits) tasks.
	maxRecords := int64(2 * len(splits) * 10)
	if got := res.Counters.Get(mr.CounterShuffleRecords); got > maxRecords {
		t.Errorf("shuffle records = %d, want ≤ %d (in-mapper combining bound)", got, maxRecords)
	}
}
