package core

import (
	"fmt"
	"math/rand"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/stats"
	"gmeansmr/internal/vec"
)

// Application counters specific to G-means.
const (
	// CounterADTests counts Anderson–Darling test executions, the O(k)
	// term of the paper's cost model.
	CounterADTests = "app.ad.tests"
	// CounterProjections counts point projections computed by test jobs.
	CounterProjections = "app.projections"
)

// Interned forms for the per-record/per-test ticks below.
var (
	counterIDADTests     = mr.InternCounter(CounterADTests)
	counterIDProjections = mr.InternCounter(CounterProjections)
)

// ---------------------------------------------------------------------------
// KMeansAndFindNewCenters (paper Algorithm 2)
// ---------------------------------------------------------------------------

// kfncMapper performs the last k-means assignment of the round over
// decoded points. The paper's formulation emits the coordinates of each
// point twice — once for the k-means reduction and once under key+Offset
// so the reduce side can pick two candidate next-iteration centers per
// current center ("This doubles the quantity of data to be shuffled ...
// largely mitigated by the use of a combiner"). This mapper pre-combines
// the k-means half in-mapper (per-center WeightedPoint accumulators,
// flushed in Close), which is exactly what the spill combiner would have
// produced for those keys, in the same fold order — so sums, candidate
// selection and therefore the whole G-means trajectory stay bit-identical
// to the emit-twice formulation. Candidate records still go out one per
// point: the combiner/reducer's seeded random pick needs to see them.
type kfncMapper struct {
	centers []vec.Vector

	accs   []vec.WeightedPoint
	batch  kmeansmr.BatchAssigner
	dists  int64
	points int64
}

func (m *kfncMapper) Setup(*mr.TaskContext) error {
	m.accs = make([]vec.WeightedPoint, len(m.centers))
	return nil
}

func (m *kfncMapper) MapColumns(_ *mr.TaskContext, cols *dfs.ColumnarSplit, emit mr.Emitter) error {
	n := cols.Len()
	idx := m.batch.Assign(m.centers, cols)
	m.dists += int64(len(m.centers)) * int64(n)
	m.points += int64(n)
	for j, best := range idx {
		if best < 0 {
			return fmt.Errorf("core: point has no nearest center (all distances non-finite)")
		}
		p := cols.At(j)
		m.accs[best].Merge(vec.WeightedPoint{Sum: p, Count: 1})
		// The candidate value wraps the cache's point view without
		// copying: combiners and reducers re-emit candidate values
		// verbatim and never mutate them, and the driver copies on
		// Centroid().
		emit.Emit(int64(best)+Offset, mr.OwnWeightedPointValue(p))
	}
	return nil
}

func (m *kfncMapper) Close(ctx *mr.TaskContext, emit mr.Emitter) error {
	ctx.Count(kmeansmr.CounterIDDistances, m.dists)
	ctx.Count(kmeansmr.CounterIDPoints, m.points)
	for i := range m.accs {
		if m.accs[i].Count > 0 {
			emit.Emit(int64(i), mr.WeightedPointValue{WeightedPoint: m.accs[i]})
		}
	}
	return nil
}

// legacyKFNCMapper is the paper's literal emit-twice formulation, kept for
// the DisableCombiners ablation so the "doubled shuffle" the paper
// describes stays measurable.
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

// kfncReducer serves as combiner and reducer of KMeansAndFindNewCenters:
// "the combiner and reducer test the value of the key. If it is larger than
// the predefined offset, they keep only 2 new centers per cluster.
// Otherwise they perform classical k-means reduction."
//
// Candidate selection is seeded by (run seed, key) rather than task id, so
// the picked candidates do not depend on how keys were partitioned across
// reduce tasks — runs on differently-sized clusters stay bit-identical,
// which the node-scaling experiment relies on.
type kfncReducer struct {
	seed int64
}

func (r *kfncReducer) Setup(*mr.TaskContext) error { return nil }

func (r *kfncReducer) Reduce(ctx *mr.TaskContext, key int64, values []mr.Value, emit mr.Emitter) error {
	if key < Offset {
		return kmeansmr.MergeReducer{}.Reduce(ctx, key, values, emit)
	}
	// Candidate stream: keep two of the incoming points (each value is a
	// single point or a survivor of a previous combine round).
	switch len(values) {
	case 0:
		return nil
	case 1:
		emit.Emit(key, values[0])
	case 2:
		emit.Emit(key, values[0])
		emit.Emit(key, values[1])
	default:
		rng := rand.New(rand.NewSource(r.seed*1_000_003 ^ key))
		i := rng.Intn(len(values))
		j := rng.Intn(len(values) - 1)
		if j >= i {
			j++
		}
		emit.Emit(key, values[i])
		emit.Emit(key, values[j])
	}
	return nil
}

func (r *kfncReducer) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// kfncOutput is the driver-side decoding of the job's output.
type kfncOutput struct {
	centers    []vec.Vector
	sizes      []int64
	candidates [][]vec.Vector // ≤2 candidate points per center
}

// runKFNC runs the KMeansAndFindNewCenters job over the given centers.
func runKFNC(cfg Config, centers []vec.Vector, round int) (*kfncOutput, *mr.Result, error) {
	spec := kfncSpec(cfg, centers, round)
	parts, err := buildKFNC(spec.Payload)
	if err != nil {
		return nil, nil, err
	}
	res, err := parts.Install(cfg.Env.Job(fmt.Sprintf("gmeans-kfnc-round-%d", round), spec)).Run()
	if err != nil {
		return nil, nil, err
	}
	out := &kfncOutput{
		centers:    vec.CloneAll(centers),
		sizes:      make([]int64, len(centers)),
		candidates: make([][]vec.Vector, len(centers)),
	}
	for _, kv := range res.Output {
		wp, ok := kv.Value.(mr.WeightedPointValue)
		if !ok {
			return nil, nil, fmt.Errorf("core: unexpected KFNC output value %T", kv.Value)
		}
		if kv.Key >= Offset {
			idx := kv.Key - Offset
			if idx < 0 || idx >= int64(len(centers)) {
				return nil, nil, fmt.Errorf("core: KFNC candidate key %d out of range", kv.Key)
			}
			if len(out.candidates[idx]) < 2 {
				out.candidates[idx] = append(out.candidates[idx], wp.Centroid())
			}
			continue
		}
		if kv.Key < 0 || kv.Key >= int64(len(centers)) {
			return nil, nil, fmt.Errorf("core: KFNC key %d out of range", kv.Key)
		}
		if wp.Count > 0 {
			out.centers[kv.Key] = wp.Centroid()
			out.sizes[kv.Key] = wp.Count
		}
	}
	return out, res, nil
}

// ---------------------------------------------------------------------------
// TestClusters (paper Algorithms 3–4): reducer-side Anderson–Darling
// ---------------------------------------------------------------------------

// testMapper assigns each point to its cluster (a center of the *previous*
// iteration) in one batched kernel call, then projects it on the vector
// joining the cluster's two current candidate centers, in input order.
// Clusters already marked found emit nothing.
//
// parents[0:foundCount] are final centers; parents[foundCount+i] is the
// parent of active cluster i, whose split vector is vectors[i].
type testMapper struct {
	parents    []vec.Vector
	foundCount int
	vectors    []vec.Vector
	batch      kmeansmr.BatchAssigner
}

func (m *testMapper) Setup(*mr.TaskContext) error { return nil }

func (m *testMapper) MapColumns(ctx *mr.TaskContext, cols *dfs.ColumnarSplit, emit mr.Emitter) error {
	n := cols.Len()
	idx := m.batch.Assign(m.parents, cols)
	ctx.Count(kmeansmr.CounterIDDistances, int64(len(m.parents))*int64(n))
	var projections int64
	for j, best := range idx {
		if int(best) < m.foundCount {
			continue // cluster already accepted as Gaussian (or best < 0)
		}
		i := int(best) - m.foundCount
		projections++
		emit.Emit(int64(i), mr.Float64Value(vec.Project(cols.At(j), m.vectors[i])))
	}
	ctx.Count(counterIDProjections, projections)
	return nil
}

func (m *testMapper) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// testReducer normalizes the projections of one cluster and runs the
// Anderson–Darling test (paper Algorithm 4). It reserves heap per the
// paper's measured 64 B/point model, so undersized task heaps fail exactly
// like the paper's "Java heap space" crashes (Figure 2).
type testReducer struct {
	alpha float64
	minN  int
}

func (r *testReducer) Setup(*mr.TaskContext) error { return nil }

func (r *testReducer) Reduce(ctx *mr.TaskContext, key int64, values []mr.Value, emit mr.Emitter) error {
	heap := int64(len(values)) * HeapBytesPerPoint
	if err := ctx.ReserveHeap(heap); err != nil {
		return err
	}
	defer ctx.ReleaseHeap(heap)

	projections := make([]float64, 0, len(values))
	for _, v := range values {
		f, ok := v.(mr.Float64Value)
		if !ok {
			return fmt.Errorf("core: unexpected projection value %T", v)
		}
		projections = append(projections, float64(f))
	}
	ctx.Count(counterIDADTests, 1)
	res, err := stats.ADTest(projections, r.alpha, r.minN)
	if err != nil {
		// Not enough samples for a verdict: report "undecided accept".
		emit.Emit(key, mr.ADDecisionValue{N: int64(len(projections)), Normal: true})
		return nil
	}
	emit.Emit(key, mr.ADDecisionValue{A2Star: res.A2Star, N: int64(res.N), Normal: res.Normal})
	return nil
}

func (r *testReducer) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// ---------------------------------------------------------------------------
// TestFewClusters (paper Algorithm 5): mapper-side Anderson–Darling
// ---------------------------------------------------------------------------

// fewMapper buffers the projections of every cluster it sees in its split
// and tests them locally in Close, emitting one A*² decision per cluster —
// "the test for normality is directly performed by the mapper, thus on
// subsets of data", which keeps reduce-phase parallelism from bounding the
// job while k is small.
type fewMapper struct {
	parents    []vec.Vector
	foundCount int
	vectors    []vec.Vector
	alpha      float64
	minN       int

	lists map[int][]float64
	batch kmeansmr.BatchAssigner
}

func (m *fewMapper) Setup(*mr.TaskContext) error {
	m.lists = make(map[int][]float64)
	return nil
}

// MapColumns batches the cluster lookup; the projection buffering runs
// per point in input order.
func (m *fewMapper) MapColumns(ctx *mr.TaskContext, cols *dfs.ColumnarSplit, _ mr.Emitter) error {
	n := cols.Len()
	idx := m.batch.Assign(m.parents, cols)
	ctx.Count(kmeansmr.CounterIDDistances, int64(len(m.parents))*int64(n))
	var projections int64
	for j, best := range idx {
		if int(best) < m.foundCount {
			continue // cluster already accepted as Gaussian (or best < 0)
		}
		i := int(best) - m.foundCount
		// One double per buffered projection: the mapper-side memory
		// footprint is O(split size / dimension), the bound the paper
		// relies on.
		if err := ctx.ReserveHeap(8); err != nil {
			return err
		}
		m.lists[i] = append(m.lists[i], vec.Project(cols.At(j), m.vectors[i]))
		projections++
	}
	ctx.Count(counterIDProjections, projections)
	return nil
}

func (m *fewMapper) Close(ctx *mr.TaskContext, emit mr.Emitter) error {
	for i, projections := range m.lists {
		if len(projections) < m.minN {
			// "There is a risk that the number of points in some clusters
			// is smaller than the threshold. The mapper is then not able to
			// compute a decision."
			continue
		}
		ctx.Count(counterIDADTests, 1)
		res, err := stats.ADTest(projections, m.alpha, m.minN)
		if err != nil {
			continue
		}
		emit.Emit(int64(i), mr.ADDecisionValue{A2Star: res.A2Star, N: int64(res.N), Normal: res.Normal})
	}
	return nil
}

// fewReducer combines the mapper decisions of one cluster: "their task is
// only to combine the decisions taken by mappers". The combining rule is
// the configurable VotePolicy (sample-size-weighted majority by default).
type fewReducer struct {
	vote VotePolicy
}

func (r *fewReducer) Setup(*mr.TaskContext) error { return nil }

func (r *fewReducer) Reduce(_ *mr.TaskContext, key int64, values []mr.Value, emit mr.Emitter) error {
	var normalN, totalN int64
	var wsum float64
	anyNormal, allNormal := false, true
	for _, v := range values {
		d, ok := v.(mr.ADDecisionValue)
		if !ok {
			return fmt.Errorf("core: unexpected decision value %T", v)
		}
		totalN += d.N
		wsum += d.A2Star * float64(d.N)
		if d.Normal {
			normalN += d.N
			anyNormal = true
		} else {
			allNormal = false
		}
	}
	if totalN == 0 {
		return nil
	}
	var normal bool
	switch r.vote {
	case VoteAll:
		normal = allNormal
	case VoteAny:
		normal = anyNormal
	default:
		normal = normalN*2 >= totalN
	}
	emit.Emit(key, mr.ADDecisionValue{A2Star: wsum / float64(totalN), N: totalN, Normal: normal})
	return nil
}

func (r *fewReducer) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// runTest runs the selected normality-test job and returns one outcome per
// active cluster (indexed like the active slice); clusters with no decision
// come back Decided=false.
func runTest(cfg Config, strategy TestStrategy, parents []vec.Vector, foundCount int, vectors []vec.Vector, round int) ([]TestOutcome, *mr.Result, error) {
	numActive := len(vectors)
	spec := testSpec(cfg, strategy, parents, foundCount, vectors)
	parts, err := buildTest(spec.Payload)
	if err != nil {
		return nil, nil, err
	}
	job := parts.Install(cfg.Env.Job(fmt.Sprintf("gmeans-%s-round-%d", strategy, round), spec))
	// "The number of reduce tasks is still equal to k": one partition per
	// cluster under test.
	job.NumReducers = numActive
	res, err := job.Run()
	if err != nil {
		return nil, nil, err
	}
	outcomes := make([]TestOutcome, numActive)
	for _, kv := range res.Output {
		d, ok := kv.Value.(mr.ADDecisionValue)
		if !ok {
			return nil, nil, fmt.Errorf("core: unexpected test output %T", kv.Value)
		}
		if kv.Key < 0 || kv.Key >= int64(numActive) {
			return nil, nil, fmt.Errorf("core: test output key %d out of range", kv.Key)
		}
		outcomes[kv.Key] = TestOutcome{A2Star: d.A2Star, N: d.N, Normal: d.Normal, Decided: true}
	}
	return outcomes, res, nil
}
