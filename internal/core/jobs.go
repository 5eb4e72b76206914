package core

import (
	"fmt"

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
// TestClusters (paper Algorithms 3–4): reducer-side Anderson–Darling
// ---------------------------------------------------------------------------

// testMapper assigns each point to its cluster (a center of the *previous*
// iteration) in one batched kernel call, then projects it on the vector
// joining the cluster's two current candidate centers, in input order.
// Clusters already marked found emit nothing.
//
// parents[0:foundCount] are final centers; parents[foundCount+i] is the
// parent of active cluster i, whose split vector is axes[i].
type testMapper struct {
	parents    []vec.Vector
	foundCount int
	axes       []vec.Axis
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
		emit.Emit(int64(i), mr.Float64Value(m.axes[i].Project(cols.At(j))))
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
	res, err := stats.ADTest(projections, r.alpha, DefaultMinTestSamples)
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
	axes       []vec.Axis
	alpha      float64

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
		m.lists[i] = append(m.lists[i], m.axes[i].Project(cols.At(j)))
		projections++
	}
	ctx.Count(counterIDProjections, projections)
	return nil
}

func (m *fewMapper) Close(ctx *mr.TaskContext, emit mr.Emitter) error {
	for i, projections := range m.lists {
		if len(projections) < DefaultMinTestSamples {
			// "There is a risk that the number of points in some clusters
			// is smaller than the threshold. The mapper is then not able to
			// compute a decision."
			continue
		}
		ctx.Count(counterIDADTests, 1)
		res, err := stats.ADTest(projections, m.alpha, DefaultMinTestSamples)
		if err != nil {
			continue
		}
		emit.Emit(int64(i), mr.ADDecisionValue{A2Star: res.A2Star, N: int64(res.N), Normal: res.Normal})
	}
	return nil
}

// fewReducer combines the mapper decisions of one cluster: "their task is
// only to combine the decisions taken by mappers". The cluster is Gaussian
// when mappers holding at least half of its tested samples accept — a
// majority vote weighted by sample size.
type fewReducer struct{}

func (r *fewReducer) Setup(*mr.TaskContext) error { return nil }

func (r *fewReducer) Reduce(_ *mr.TaskContext, key int64, values []mr.Value, emit mr.Emitter) error {
	var normalN, totalN int64
	var wsum float64
	for _, v := range values {
		d, ok := v.(mr.ADDecisionValue)
		if !ok {
			return fmt.Errorf("core: unexpected decision value %T", v)
		}
		totalN += d.N
		wsum += d.A2Star * float64(d.N)
		if d.Normal {
			normalN += d.N
		}
	}
	if totalN == 0 {
		return nil
	}
	emit.Emit(key, mr.ADDecisionValue{A2Star: wsum / float64(totalN), N: totalN, Normal: normalN*2 >= totalN})
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
