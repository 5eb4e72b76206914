// Package kmeansmr implements the MapReduce k-means building blocks shared
// by the paper's two contenders:
//
//   - the classical MR k-means iteration (mapper assigns each point to its
//     nearest center and emits a partial sum; combiner and reducer merge
//     partial sums into new centroids), used both standalone and inside the
//     G-means loop;
//   - multi-k-means (the paper's Algorithm 6): one job maintains center
//     sets for *every* candidate k simultaneously, which is the paper's
//     "fair" baseline for determining k and the source of its O(n·k²) cost.
//
// Both jobs use combiners, as the paper stresses ("a classical MapReduce
// implementation of k-means with combiners").
package kmeansmr

import (
	"context"
	"fmt"
	"math/rand"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/obs"
	"gmeansmr/internal/vec"
)

// Application-level counters, kept separate from the engine's mr.* ones.
const (
	// CounterDistances counts point-to-center distance computations, the
	// unit of the paper's computation-cost model (O(nk) for G-means vs
	// O(nk²) for multi-k-means).
	CounterDistances = "app.distance.computations"
	// CounterPoints counts points processed by mappers.
	CounterPoints = "app.points.processed"
)

// Interned forms of the counters above, so per-record mapper loops tick
// them without string-map lookups (see mr.InternCounter). Exported because
// package core's mappers tick the same counters.
var (
	CounterIDDistances = mr.InternCounter(CounterDistances)
	CounterIDPoints    = mr.InternCounter(CounterPoints)
)

// Env bundles what every job in this repository needs: the file system,
// the cluster to run on, the dataset location and its dimensionality.
type Env struct {
	FS      *dfs.FS
	Cluster mr.Cluster
	Input   string
	Dim     int
	// Ctx, when non-nil, cancels or deadlines every job built from this
	// environment — the drivers (G-means rounds, multi-k-means iterations)
	// also check it between jobs. Nil means context.Background().
	Ctx context.Context
	// Trace, when non-nil, is handed to every job built from this
	// environment (mr.Job.Trace), so one recorder collects the spans of a
	// whole chained-job algorithm run. Nil disables span recording.
	Trace *obs.Trace
	// Runner, when non-nil, selects the execution backend of every job
	// built from this environment (mr.Job.Runner) — e.g. an
	// mrdist.ProcRunner scheduling onto worker subprocesses. Nil selects
	// the in-process mr.LocalRunner.
	Runner mr.TaskRunner
}

// Context returns the environment's context, defaulting to Background.
func (e Env) Context() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// BatchAssigner wraps the fused nearest-center kernel of internal/vec
// with reusable per-task buffers. One instance belongs to one map task;
// Assign may be called once per center set (multi-k-means calls it |ks|
// times per split).
type BatchAssigner struct {
	idx     []int32
	dist    []float64
	scratch vec.BatchScratch
}

// Assign computes the nearest center of every point of the split in one
// kernel call and returns one center index per point. Entries are -1 when
// every distance is non-finite, exactly as vec.NearestIndex reports. The
// returned slice is owned by the assigner and overwritten by the next
// call.
func (a *BatchAssigner) Assign(centers []vec.Vector, cols *dfs.ColumnarSplit) []int32 {
	idx, _ := a.AssignDist(centers, cols)
	return idx
}

// AssignDist is Assign plus each point's squared distance to its nearest
// center — the second result of vec.NearestIndex, bit-identical. Both
// returned slices are owned by the assigner and overwritten by the next
// call.
func (a *BatchAssigner) AssignDist(centers []vec.Vector, cols *dfs.ColumnarSplit) ([]int32, []float64) {
	n := cols.Len()
	if cap(a.idx) < n {
		a.idx = make([]int32, n)
		a.dist = make([]float64, n)
	}
	idx, dist := a.idx[:n], a.dist[:n]
	vec.NearestBatch(centers, cols.Flat(), n, idx, dist, &a.scratch)
	return idx, dist
}

// Validate reports a configuration error, if any.
func (e Env) Validate() error {
	if e.FS == nil {
		return fmt.Errorf("kmeansmr: nil FS")
	}
	if e.Input == "" {
		return fmt.Errorf("kmeansmr: empty input path")
	}
	if e.Dim <= 0 {
		return fmt.Errorf("kmeansmr: dimensionality must be positive, got %d", e.Dim)
	}
	return e.Cluster.Validate()
}

// Job returns a point job over the environment's input carrying spec,
// with every environment-level field (FS, cluster, context, trace,
// backend) filled in; the caller installs the factories built from spec.
func (e Env) Job(name string, spec *mr.JobSpec) *mr.Job {
	return &mr.Job{
		Name:     name,
		FS:       e.FS,
		Cluster:  e.Cluster,
		Input:    []string{e.Input},
		PointDim: e.Dim,
		Ctx:      e.Ctx,
		Trace:    e.Trace,
		Runner:   e.Runner,
		Spec:     spec,
	}
}

// assignMapper is the classical k-means mapper with in-mapper combining:
// one fused batch-kernel call assigns every point of the split to its
// nearest center, then each point folds into a per-center WeightedPoint
// accumulator, and Close emits the ≤k non-empty partial sums. The
// n-record emit stream of the textbook formulation never exists, so the
// spill sort only ever sees ≤k keys per task. The accumulation order per
// (task, center) is input-record order — exactly the order the spill
// combiner folds the same points in behind emitAssignMapper — which keeps
// the refined centers bit-identical between the two formulations. The
// distance counter ticks the paper's modelled cost of k per point.
type assignMapper struct {
	centers []vec.Vector

	accs   []vec.WeightedPoint
	batch  BatchAssigner
	dists  int64
	points int64
}

func (m *assignMapper) Setup(*mr.TaskContext) error {
	m.accs = make([]vec.WeightedPoint, len(m.centers))
	return nil
}

func (m *assignMapper) MapColumns(_ *mr.TaskContext, cols *dfs.ColumnarSplit, _ mr.Emitter) error {
	n := cols.Len()
	idx := m.batch.Assign(m.centers, cols)
	m.dists += int64(len(m.centers)) * int64(n)
	m.points += int64(n)
	for j, best := range idx {
		if best < 0 {
			// Every distance overflowed to +Inf (finite but astronomically
			// large coordinates): fail the task with a diagnosis instead of
			// indexing the accumulator with -1.
			return fmt.Errorf("kmeansmr: point has no nearest center (all distances non-finite)")
		}
		m.accs[best].Merge(vec.WeightedPoint{Sum: cols.At(j), Count: 1})
	}
	return nil
}

func (m *assignMapper) Close(ctx *mr.TaskContext, emit mr.Emitter) error {
	ctx.Count(CounterIDDistances, m.dists)
	ctx.Count(CounterIDPoints, m.points)
	for i := range m.accs {
		if m.accs[i].Count > 0 {
			emit.Emit(int64(i), mr.WeightedPointValue{WeightedPoint: m.accs[i]})
		}
	}
	return nil
}

// emitAssignMapper is the textbook formulation of the k-means mapper: the
// same batched assignment, but one (centerID, point) pair emitted per
// point, leaving all combining to the job's combiner — or to the reducer
// alone, the no-combiner worst case of the paper's shuffle-cost model
// (IterateNoCombiner).
type emitAssignMapper struct {
	centers []vec.Vector
	batch   BatchAssigner
}

func (m *emitAssignMapper) Setup(*mr.TaskContext) error { return nil }

func (m *emitAssignMapper) MapColumns(ctx *mr.TaskContext, cols *dfs.ColumnarSplit, emit mr.Emitter) error {
	n := cols.Len()
	idx := m.batch.Assign(m.centers, cols)
	ctx.Count(CounterIDDistances, int64(len(m.centers))*int64(n))
	ctx.Count(CounterIDPoints, int64(n))
	for j, best := range idx {
		if best < 0 {
			return fmt.Errorf("kmeansmr: point has no nearest center (all distances non-finite)")
		}
		// The value wraps the cache's read-only point view without
		// copying: reducers only accumulate into their own sums.
		emit.Emit(int64(best), mr.OwnWeightedPointValue(cols.At(j)))
	}
	return nil
}

func (m *emitAssignMapper) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// MergeReducer merges WeightedPointValue partial sums; it serves as both
// combiner and reducer of the classical k-means job.
type MergeReducer struct{}

// Setup implements mr.Reducer.
func (MergeReducer) Setup(*mr.TaskContext) error { return nil }

// Reduce implements mr.Reducer by summing all partial centroids of a key.
func (MergeReducer) Reduce(_ *mr.TaskContext, key int64, values []mr.Value, emit mr.Emitter) error {
	var acc vec.WeightedPoint
	for _, v := range values {
		wp, ok := v.(mr.WeightedPointValue)
		if !ok {
			return fmt.Errorf("kmeansmr: unexpected value type %T for key %d", v, key)
		}
		acc.Merge(wp.WeightedPoint)
	}
	emit.Emit(key, mr.WeightedPointValue{WeightedPoint: acc})
	return nil
}

// Close implements mr.Reducer.
func (MergeReducer) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// IterationResult is the outcome of one MR k-means iteration.
type IterationResult struct {
	// Centers holds the refined centers; entries with Sizes[i]==0 keep the
	// previous position (the empty-cluster convention).
	Centers []vec.Vector
	// Sizes holds the number of points assigned to each center.
	Sizes []int64
	// Job is the underlying engine result (counters, durations).
	Job *mr.Result
}

// Iterate runs one classical MR k-means iteration over the dataset,
// refining the given centers, with in-mapper combining.
func Iterate(env Env, centers []vec.Vector) (*IterationResult, error) {
	return iterate(env, centers, "kmeans", modeInMapper)
}

// IterateNoCombiner runs one MR k-means iteration with combining
// disabled: one record per point crosses the shuffle, O(n) coordinate
// records — the worst case of the paper's cost model. Intended for the
// combiner ablation benchmark.
func IterateNoCombiner(env Env, centers []vec.Vector, name string) (*IterationResult, error) {
	if name == "" {
		name = "kmeans-nocombine"
	}
	return iterate(env, centers, name, modeNoCombiner)
}

// iterateMode selects the combining variant of one k-means iteration.
type iterateMode int

const (
	// modeInMapper: in-mapper combining (assignMapper). The default.
	modeInMapper iterateMode = iota
	// modeNoCombiner: one emitted pair per point, no combining at all.
	modeNoCombiner
)

func iterate(env Env, centers []vec.Vector, name string, mode iterateMode) (*IterationResult, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if len(centers) == 0 {
		return nil, fmt.Errorf("kmeansmr: no centers to refine")
	}
	spec := assignSpec(centers, mode)
	parts, err := buildAssign(spec.Payload)
	if err != nil {
		return nil, err
	}
	job := parts.Install(env.Job(name, spec))
	res, err := job.Run()
	if err != nil {
		return nil, err
	}
	out := &IterationResult{
		Centers: vec.CloneAll(centers),
		Sizes:   make([]int64, len(centers)),
		Job:     res,
	}
	for _, kv := range res.Output {
		wp, ok := kv.Value.(mr.WeightedPointValue)
		if !ok || kv.Key < 0 || kv.Key >= int64(len(centers)) {
			return nil, fmt.Errorf("kmeansmr: unexpected reducer output key=%d value=%T", kv.Key, kv.Value)
		}
		if wp.Count > 0 {
			out.Centers[kv.Key] = wp.Centroid()
			out.Sizes[kv.Key] = wp.Count
		}
	}
	return out, nil
}

// SamplePoints draws n points uniformly from the dataset by reservoir
// sampling over a single scan — the serial PickInitialCenters step of the
// paper ("we use a serial implementation, that picks initial centers at
// random"). It fails when the dataset holds fewer than n points.
func SamplePoints(env Env, n int, seed int64) ([]vec.Vector, error) {
	out, err := SampleUpTo(env, n, seed)
	if err != nil {
		return nil, err
	}
	if len(out) < n {
		return nil, fmt.Errorf("kmeansmr: dataset has only %d points, need %d samples", len(out), n)
	}
	return out, nil
}

// SampleUpTo draws up to n points uniformly from the dataset by reservoir
// sampling; smaller datasets yield every point. The scan runs over the
// decoded-split cache (accounting one dataset read and the full byte
// volume, like any other scan) and also warms that cache for the jobs
// that follow.
func SampleUpTo(env Env, n int, seed int64) ([]vec.Vector, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	reservoir := make([]vec.Vector, 0, n)
	splits, err := env.FS.Splits(env.Input)
	if err != nil {
		return nil, err
	}
	env.FS.CountDatasetRead()
	seen := 0
	for _, sp := range splits {
		ps, err := env.FS.OpenSplitPoints(sp, env.Dim)
		if err != nil {
			return nil, err
		}
		for i := 0; i < ps.Len(); i++ {
			p := ps.At(i)
			seen++
			if len(reservoir) < n {
				reservoir = append(reservoir, p)
			} else if j := rng.Intn(seen); j < n {
				reservoir[j] = p
			}
		}
	}
	// The reservoir holds read-only views into the cache; hand callers
	// their own copies, since samples become centers that get refined.
	return vec.CloneAll(reservoir), nil
}
