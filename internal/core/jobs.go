package core

import (
	"fmt"
	"math"

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
// TestClusters (paper Algorithms 3–4): reducer-side Anderson–Darling on a
// bounded sample
// ---------------------------------------------------------------------------

// testMapper assigns each point to its cluster (a center of the *previous*
// iteration) in one batched kernel call, then projects the sampled points
// on the vector joining the cluster's two current candidate centers, in
// input order. Clusters already marked found emit nothing.
//
// parents[0:foundCount] are final centers; parents[foundCount+i] is the
// parent of active cluster i, whose split vector is axes[i]. Record j of
// map task t belongs to active cluster i's sample when
// sampleHash(keys[i] ^ t<<32 ^ j) ≤ thresholds[i]: the choice depends on
// the payload, the task id and the record's index in its split alone, so
// every backend, retry and speculative copy of a task emits the same
// records.
type testMapper struct {
	parents    []vec.Vector
	foundCount int
	axes       []vec.Axis
	keys       []uint64
	thresholds []uint64
	batch      kmeansmr.BatchAssigner
}

func (m *testMapper) Setup(*mr.TaskContext) error { return nil }

func (m *testMapper) MapColumns(ctx *mr.TaskContext, cols *dfs.ColumnarSplit, emit mr.Emitter) error {
	n := cols.Len()
	idx := m.batch.Assign(m.parents, cols)
	ctx.Count(kmeansmr.CounterIDDistances, int64(len(m.parents))*int64(n))
	task := uint64(ctx.TaskID) << 32
	var projections int64
	for j, best := range idx {
		if int(best) < m.foundCount {
			continue // cluster already accepted as Gaussian (or best < 0)
		}
		i := int(best) - m.foundCount
		if sampleHash(m.keys[i]^task^uint64(j)) > m.thresholds[i] {
			continue // not in cluster i's sample
		}
		projections++
		emit.Emit(int64(i), mr.Float64Value(m.axes[i].Project(cols.At(j))))
	}
	ctx.Count(counterIDProjections, projections)
	return nil
}

func (m *testMapper) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// sampleHash is the splitmix64 finalizer (Steele, Lea & Flood, "Fast
// splittable pseudorandom number generators", OOPSLA 2014): a bijection
// whose outputs on distinct inputs are close to independent and uniform.
func sampleHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// sampleKey mixes the run seed, the round and the active-cluster index
// into the per-cluster key a record's (task, index) pair is hashed with.
func sampleKey(seed int64, round, cluster int) uint64 {
	return sampleHash(sampleHash(uint64(seed)) ^ uint64(round)<<32 ^ uint64(cluster))
}

// sampleThreshold returns the largest hash a record of a cluster of n
// points may have to be sampled: rate min(1, testSampleSize/n) of the
// 64-bit hash range, so math.MaxUint64 takes every record.
func sampleThreshold(n int64) uint64 {
	if n <= testSampleSize {
		return math.MaxUint64
	}
	return uint64(math.Ldexp(float64(testSampleSize)/float64(n), 64))
}

// testReducer normalizes the sampled projections of one cluster and runs
// the Anderson–Darling test (paper Algorithm 4). The sample bounds its
// memory to about testSampleSize projections per cluster.
type testReducer struct {
	alpha float64
}

func (r *testReducer) Setup(*mr.TaskContext) error { return nil }

func (r *testReducer) Reduce(ctx *mr.TaskContext, key int64, values []mr.Value, emit mr.Emitter) error {
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

// runTest runs the normality-test job and returns one outcome per active
// cluster (indexed like the active slice); clusters with no decision come
// back Decided=false. sizes[i] is active cluster i's point count at the
// last k-means pass, which sets its sampling rate.
func runTest(cfg Config, parents []vec.Vector, foundCount int, vectors []vec.Vector, sizes []int64, round int) ([]TestOutcome, *mr.Result, error) {
	numActive := len(vectors)
	spec := testSpec(cfg, parents, foundCount, vectors, sizes, round)
	parts, err := buildTest(spec.Payload)
	if err != nil {
		return nil, nil, err
	}
	job := parts.Install(cfg.Env.Job(fmt.Sprintf("gmeans-%s-round-%d", StrategyReducer, round), spec))
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
