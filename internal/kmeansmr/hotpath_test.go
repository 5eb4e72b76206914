package kmeansmr

import (
	"fmt"
	"sync"
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/vec"
)

// emitAssignMapper is the textbook formulation of the k-means mapper: the
// same batched assignment, but one (centerID, point) pair emitted per
// point, leaving all combining to the job's combiner. It is the reference
// assignMapper must match bit for bit.
type emitAssignMapper struct {
	centers []vec.Vector
	batch   BatchAssigner
}

func (m *emitAssignMapper) Setup(*mr.TaskContext) error { return nil }

func (m *emitAssignMapper) MapColumns(ctx *mr.TaskContext, cols *dfs.ColumnarSplit, emit mr.Emitter) error {
	n := cols.Len()
	idx := m.batch.Assign(m.centers, cols)
	ctx.Count(CounterDistances, int64(len(m.centers))*int64(n))
	ctx.Count(CounterPoints, int64(n))
	for j, best := range idx {
		if best < 0 {
			return fmt.Errorf("kmeansmr: point has no nearest center (all distances non-finite)")
		}
		// The value wraps the cache's read-only point view without
		// copying: reducers only accumulate into their own sums.
		emit.Emit(int64(best), mr.WeightedPointValue{WeightedPoint: vec.WeightedPoint{Sum: cols.At(j), Count: 1}})
	}
	return nil
}

func (m *emitAssignMapper) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// iterateSpillCombined runs the emit-per-point formulation of one k-means
// iteration — emitAssignMapper, one pair per point, all combining left to
// the MergeReducer spill combiner — as the reference for in-mapper
// combining.
func iterateSpillCombined(t *testing.T, env Env, centers []vec.Vector) *mr.Result {
	t.Helper()
	job := env.Job("kmeans-spill-combined", nil)
	job.NewPointMapper = func() mr.PointMapper { return &emitAssignMapper{centers: centers} }
	job.NewCombiner = func() mr.Reducer { return MergeReducer{} }
	job.NewReducer = func() mr.Reducer { return MergeReducer{} }
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIterateCachedMatchesLegacyExactly is the contract of in-mapper
// combining: folding points into per-center accumulators inside the
// mapper must produce bit-identical centers, sizes and app.* counters to
// emitting one pair per point and combining at spill time — same fold
// order per (task, center), same reduce-side merge order — and the same
// shuffle volume.
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
	spill := iterateSpillCombined(t, env, initial)
	sums := make(map[int64]vec.WeightedPoint)
	for _, kv := range spill.Output {
		sums[kv.Key] = kv.Value.(mr.WeightedPointValue).WeightedPoint
	}
	for c := range initial {
		wp := sums[int64(c)]
		want := initial[c]
		if wp.Count > 0 {
			want = wp.Centroid()
		}
		if !vec.Equal(cached.Centers[c], want) {
			t.Errorf("center %d: in-mapper %v != spill-combined %v", c, cached.Centers[c], want)
		}
		if cached.Sizes[c] != wp.Count {
			t.Errorf("size %d: in-mapper %d != spill-combined %d", c, cached.Sizes[c], wp.Count)
		}
	}
	// The shuffle volume of the in-mapper-combined path must match the
	// spill-combined path too: one record per non-empty (task, center)
	// either way.
	for _, counter := range []string{CounterDistances, CounterPoints, mr.CounterShuffleRecords, mr.CounterShuffleBytes} {
		if a, b := cached.Job.Counters.Get(counter), spill.Counters.Get(counter); a != b {
			t.Errorf("%s: in-mapper %d != spill-combined %d", counter, a, b)
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

// TestRunMultiCachedMatchesLegacyShuffle pins the multi-k in-mapper
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
