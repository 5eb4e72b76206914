// Package kmeansmr implements the MapReduce k-means building blocks shared
// by the paper's two contenders:
//
//   - the classical MR k-means iteration (mapper assigns each point to its
//     nearest center and sums the points per center; the reducer merges
//     the partial sums into new centroids), used both standalone and
//     inside the G-means loop;
//   - multi-k-means (the paper's Algorithm 6): one job maintains center
//     sets for *every* candidate k simultaneously, which is the paper's
//     "fair" baseline for determining k and the source of its O(n·k²) cost.
//     That cost is the model the distance counter reports; the mappers
//     evaluate far fewer distances, with the same answers bit for bit,
//     by assigning every k inside the groups the largest k's assignment
//     forms and pruning centers by the groups' bounds (groupassign.go).
//
// The paper's baseline is "a classical MapReduce implementation of k-means
// with combiners". Here every mapper combines in-mapper (Lin & Dyer,
// Data-Intensive Text Processing with MapReduce, 2010, §3.1): it sums its
// split per key and emits one partial sum per key, so the engine needs no
// combine stage and the shuffle volume is what a combiner would leave.
package kmeansmr

import (
	"context"
	"fmt"
	"math/rand"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/mrdist"
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
		Input:    e.Input,
		PointDim: e.Dim,
		Ctx:      e.Ctx,
		Trace:    e.Trace,
		Runner:   e.Runner,
		Spec:     spec,
	}
}

// assignMapper is the classical k-means mapper with in-mapper combining:
// one fused batch-kernel call assigns every point of the split to its
// nearest center, one vec.FoldRows call adds every point into its
// center's running Σx and count, and Close emits the ≤k non-empty
// partial sums. The n-record emit stream of the textbook formulation
// never exists, so the spill sort only ever sees ≤k keys per task. The
// accumulation order per (task, center) is input-record order — the order
// a combiner would fold the same points in behind the textbook
// one-pair-per-point mapper — which keeps the refined centers
// bit-identical to that formulation (TestIterateCachedMatchesLegacyExactly
// pins this against a point-at-a-time fold). The distance counter ticks
// the paper's modelled cost of k per point.
type assignMapper struct {
	centers []vec.Vector

	sums   *CenterSums
	batch  BatchAssigner
	dists  int64
	points int64
}

func (m *assignMapper) Setup(*mr.TaskContext) error {
	m.sums = NewCenterSums(m.centers)
	return nil
}

func (m *assignMapper) MapColumns(_ *mr.TaskContext, cols *dfs.ColumnarSplit, _ mr.Emitter) error {
	n := cols.Len()
	idx := m.batch.Assign(m.centers, cols)
	m.dists += int64(len(m.centers)) * int64(n)
	m.points += int64(n)
	if !m.sums.Fold(cols.Rows(), idx) {
		// Every distance overflowed to +Inf (finite but astronomically
		// large coordinates): fail the task with a diagnosis instead of
		// folding into center -1.
		return fmt.Errorf("kmeansmr: point has no nearest center (all distances non-finite)")
	}
	return nil
}

func (m *assignMapper) Close(ctx *mr.TaskContext, emit mr.Emitter) error {
	ctx.Count(CounterDistances, m.dists)
	ctx.Count(CounterPoints, m.points)
	for i := 0; i < m.sums.Len(); i++ {
		if wp, ok := m.sums.At(i); ok {
			emit.Emit(int64(i), mr.WeightedPointValue{WeightedPoint: wp})
		}
	}
	return nil
}

// CenterSums is a map task's running Σx and count per center, kept flat
// (the sum of center i at sums[i*dim:(i+1)*dim]) so that one vec.FoldRows
// call folds a whole split.
type CenterSums struct {
	dim    int
	sums   []float64
	counts []int64
}

// NewCenterSums returns empty sums for the given centers.
func NewCenterSums(centers []vec.Vector) *CenterSums {
	dim := 0
	if len(centers) > 0 {
		dim = len(centers[0])
	}
	return &CenterSums{dim: dim, sums: make([]float64, len(centers)*dim), counts: make([]int64, len(centers))}
}

// Fold adds every row-major point of rows (point j at
// rows[j*dim:(j+1)*dim]) into the sum of its center idx[j], in input
// order. It folds nothing and reports false when some point has no
// nearest center (index -1: every distance was non-finite).
func (s *CenterSums) Fold(rows []float64, idx []int32) bool {
	for _, c := range idx {
		if c < 0 {
			return false
		}
	}
	vec.FoldRows(s.sums, s.counts, rows, s.dim, idx)
	return true
}

// Len returns the number of centers.
func (s *CenterSums) Len() int { return len(s.counts) }

// At returns center i's partial sum, and false when no point was folded
// into it. The sum is a view into the flat array, not a copy: an emitted
// value keeps the whole array alive until its reduce runs, which costs no
// more memory than a copy per center when few centers are empty and saves
// an allocation per center. Every reducer of these sums merges them into
// a fresh accumulator (vec.WeightedPoint.Merge allocates on a nil sum), so
// no emitted view is written to.
func (s *CenterSums) At(i int) (vec.WeightedPoint, bool) {
	if s.counts[i] == 0 {
		return vec.WeightedPoint{}, false
	}
	return vec.WeightedPoint{Sum: s.sums[i*s.dim : (i+1)*s.dim : (i+1)*s.dim], Count: s.counts[i]}, true
}

// MergeReducer merges WeightedPointValue partial sums into one per key;
// it is the reducer of the classical and the multi-k k-means jobs.
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
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if len(centers) == 0 {
		return nil, fmt.Errorf("kmeansmr: no centers to refine")
	}
	job, err := mrdist.Build(env.Job("kmeans", assignSpec(centers)))
	if err != nil {
		return nil, err
	}
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
