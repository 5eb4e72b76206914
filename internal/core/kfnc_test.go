package core

import (
	"fmt"
	"strings"
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/vec"
)

// legacyKFNCMapper is the paper's literal emit-twice formulation of the
// KMeansAndFindNewCenters mapper: every point goes out under its center's
// key and again under key+Offset. It is the reference kfncMapper must
// match bit for bit.
type legacyKFNCMapper struct {
	centers []vec.Vector
	batch   kmeansmr.BatchAssigner
}

func (m *legacyKFNCMapper) Setup(*mr.TaskContext) error { return nil }

func (m *legacyKFNCMapper) MapColumns(ctx *mr.TaskContext, cols *dfs.ColumnarSplit, emit mr.Emitter) error {
	n := cols.Len()
	idx := m.batch.Assign(m.centers, cols)
	ctx.Count(kmeansmr.CounterIDDistances, int64(len(m.centers))*int64(n))
	ctx.Count(kmeansmr.CounterIDPoints, int64(n))
	for j, best := range idx {
		if best < 0 {
			return fmt.Errorf("core: point has no nearest center (all distances non-finite)")
		}
		// Both values share the cached vector: the k-means reduction only
		// accumulates into its own sums and the candidate path re-emits
		// values verbatim, so no copy is needed.
		wp := mr.OwnWeightedPointValue(cols.At(j))
		emit.Emit(int64(best), wp)
		emit.Emit(int64(best)+Offset, wp)
	}
	return nil
}

func (m *legacyKFNCMapper) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// TestKFNCInMapperMatchesEmitTwiceExactly is the contract of kfncMapper's
// in-mapper combining: pre-combining the k-means half per center inside
// the mapper must give bit-identical centers, sizes, candidate picks,
// shuffle volume and app.* counters to the paper's emit-twice formulation
// (legacyKFNCMapper) with kfncReducer as its spill combiner.
func TestKFNCInMapperMatchesEmitTwiceExactly(t *testing.T) {
	env, ds := newEnv(t, dataset.Spec{K: 6, Dim: 5, N: 3000, MinSeparation: 15, Seed: 21}, 8<<10, smallCluster())
	centers := vec.CloneAll(ds.Centers)
	for _, c := range centers {
		c[0] += 1.5 // force real movement
	}
	cfg := Config{Env: env, Seed: 9}.withDefaults()
	const round = 3

	got, gotRes, err := runKFNC(cfg, centers, round)
	if err != nil {
		t.Fatal(err)
	}

	seed := cfg.Seed + round
	job := cfg.Env.Job("gmeans-kfnc-emit-twice", nil)
	job.NewPointMapper = func() mr.PointMapper { return &legacyKFNCMapper{centers: centers} }
	job.NewCombiner = func() mr.Reducer { return &kfncReducer{seed: seed} }
	job.NewReducer = func() mr.Reducer { return &kfncReducer{seed: seed} }
	wantRes, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantCenters := vec.CloneAll(centers)
	wantSizes := make([]int64, len(centers))
	wantCands := make([][]vec.Vector, len(centers))
	for _, kv := range wantRes.Output {
		wp := kv.Value.(mr.WeightedPointValue)
		if kv.Key >= Offset {
			wantCands[kv.Key-Offset] = append(wantCands[kv.Key-Offset], wp.Centroid())
			continue
		}
		if wp.Count > 0 {
			wantCenters[kv.Key] = wp.Centroid()
			wantSizes[kv.Key] = wp.Count
		}
	}

	for c := range centers {
		if !vec.Equal(got.centers[c], wantCenters[c]) {
			t.Errorf("center %d: in-mapper %v != emit-twice %v", c, got.centers[c], wantCenters[c])
		}
		if got.sizes[c] != wantSizes[c] {
			t.Errorf("size %d: in-mapper %d != emit-twice %d", c, got.sizes[c], wantSizes[c])
		}
		if len(wantCands[c]) != 2 || len(got.candidates[c]) != 2 {
			t.Fatalf("center %d: candidates in-mapper %d, emit-twice %d, want 2 each",
				c, len(got.candidates[c]), len(wantCands[c]))
		}
		for i := range wantCands[c] {
			if !vec.Equal(got.candidates[c][i], wantCands[c][i]) {
				t.Errorf("center %d candidate %d: in-mapper %v != emit-twice %v",
					c, i, got.candidates[c][i], wantCands[c][i])
			}
		}
	}

	counters := []string{mr.CounterShuffleRecords, mr.CounterShuffleBytes}
	for _, res := range []*mr.Result{gotRes, wantRes} {
		for _, name := range res.Counters.Names() {
			if strings.HasPrefix(name, "app.") {
				counters = append(counters, name)
			}
		}
	}
	for _, name := range counters {
		if a, b := gotRes.Counters.Get(name), wantRes.Counters.Get(name); a != b {
			t.Errorf("%s: in-mapper %d != emit-twice %d", name, a, b)
		}
	}
	if gotRes.Counters.Get(kmeansmr.CounterPoints) != int64(len(ds.Points)) {
		t.Errorf("points = %d, want %d", gotRes.Counters.Get(kmeansmr.CounterPoints), len(ds.Points))
	}
	splits, err := env.FS.Splits(env.Input)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d splits, %d shuffle records", len(splits), gotRes.Counters.Get(mr.CounterShuffleRecords))
	// One record per (task, center) for the k-means half and at most two
	// per (task, center) for the candidates.
	if got, max := gotRes.Counters.Get(mr.CounterShuffleRecords), int64(3*len(splits)*len(centers)); got > max {
		t.Errorf("shuffle records = %d, want ≤ %d", got, max)
	}
}
