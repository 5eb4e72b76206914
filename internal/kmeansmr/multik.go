package kmeansmr

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/mrdist"
	"gmeansmr/internal/vec"
)

// KeyStride packs (k, centerID) into one int64 key as k*KeyStride+centerID.
// 2^32 center ids per k is far beyond any candidate set while keeping keys
// well under the int64 range used by the engine.
const KeyStride = int64(1) << 32

// MultiSeeding selects how multi-k-means picks its initial centers.
type MultiSeeding int

// Seeding strategies.
const (
	// MultiSeedRandom draws KMax dataset points uniformly (one reservoir
	// scan); center set for k = first k of them. The paper's default.
	MultiSeedRandom MultiSeeding = iota
	// MultiSeedPlusPlus draws a larger uniform sample and applies
	// k-means++ over it — the driver-side approximation of Bahmani's
	// scalable k-means++ the paper cites for production deployments ("a
	// production version of multi-k-means thus requires ... an additional
	// job to select initial centers").
	MultiSeedPlusPlus
)

// MultiConfig parameterizes a multi-k-means run (the paper's Algorithm 6
// plus the evaluation job it needs afterwards).
type MultiConfig struct {
	Env
	KMin, KMax, KStep int
	// Iterations is the number of Lloyd iterations to run; the paper uses
	// 10 ("we let the algorithm run 10 iterations, which is enough to find
	// a stable solution").
	Iterations int
	// Seeding selects the initializer (default: random, as in the paper).
	Seeding MultiSeeding
	Seed    int64
	// Progress, when non-nil, is invoked at the end of every iteration
	// with the 1-based iteration number and that iteration's own wall
	// time — the MR job plus the driver-side center updates, never a
	// cumulative total. This matches the per-round durations G-means
	// reports, so mixed-algorithm dashboards chart one semantic.
	Progress func(iteration int, duration time.Duration)
}

func (c MultiConfig) withDefaults() MultiConfig {
	if c.KMin <= 0 {
		c.KMin = 1
	}
	if c.KStep <= 0 {
		c.KStep = 1
	}
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
	return c
}

// MultiResult is the outcome of a multi-k-means run.
type MultiResult struct {
	// CentersByK maps each candidate k to its final center set.
	CentersByK map[int][]vec.Vector
	// WCSSByK and AvgDistByK are filled by Evaluate.
	WCSSByK    map[int]float64
	AvgDistByK map[int]float64
	// IterationTimes records the wall time of each of the chained jobs —
	// the quantity behind the paper's Table 2 ("average time of a single
	// iteration of multi-k-means").
	IterationTimes []time.Duration
	// Counters aggregates engine and app counters over all jobs.
	Counters *mr.Counters
	Duration time.Duration
}

// AvgIterationTime returns the mean job time, the statistic of the paper's
// Table 2.
func (r *MultiResult) AvgIterationTime() time.Duration {
	if len(r.IterationTimes) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range r.IterationTimes {
		total += d
	}
	return total / time.Duration(len(r.IterationTimes))
}

// multiMapper is the paper's Algorithm 6 with in-mapper combining: it
// assigns the split's points under every candidate k's center set
// (groupAssigner: the largest set with the full kernel, every other set
// inside the groups that assignment forms, with centers pruned by group
// bounds, bit for bit), and one vec.FoldRows call per k and chunk adds
// each point into the (k, centerID) accumulator; Close emits the Σ_k k
// partial sums. The distance counter ticks the paper's modelled cost of
// Σ_k k distances per point, the O(n·k²) term of the cost analysis, not
// the fewer distances the kernel evaluates. The shuffle and spill sort
// only ever see Σ_k k records per task instead of n·|ks|. Per (k,
// center, dimension) the accumulation runs in input-record order.
type multiMapper struct {
	plan *groupPlan
	ks   []int

	sums   []*CenterSums
	assign groupAssigner
	dists  int64
	points int64
}

func (m *multiMapper) Setup(*mr.TaskContext) error {
	m.sums = make([]*CenterSums, len(m.ks))
	for i, set := range m.plan.sets {
		m.sums[i] = NewCenterSums(set)
	}
	m.assign.plan = m.plan
	return nil
}

func (m *multiMapper) MapColumns(_ *mr.TaskContext, cols *dfs.ColumnarSplit, _ mr.Emitter) error {
	n, dim, rows := cols.Len(), cols.Dim(), cols.Rows()
	err := m.assign.assign(cols, func(i, lo int, idx []int32, _ []float64) error {
		if !m.sums[i].Fold(rows[lo*dim:(lo+len(idx))*dim], idx) {
			return fmt.Errorf("kmeansmr: point has no nearest center for k=%d (all distances non-finite)", m.ks[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, set := range m.plan.sets {
		m.dists += int64(len(set)) * int64(n)
	}
	m.points += int64(n)
	return nil
}

func (m *multiMapper) Close(ctx *mr.TaskContext, emit mr.Emitter) error {
	ctx.Count(CounterDistances, m.dists)
	ctx.Count(CounterPoints, m.points)
	for i, k := range m.ks {
		s := m.sums[i]
		for cid := 0; cid < s.Len(); cid++ {
			if wp, ok := s.At(cid); ok {
				emit.Emit(int64(k)*KeyStride+int64(cid), mr.WeightedPointValue{WeightedPoint: wp})
			}
		}
	}
	return nil
}

// RunMulti executes the full multi-k-means pipeline: random shared seeding,
// cfg.Iterations chained jobs, and returns the per-k center sets. Call
// Evaluate afterwards to score them (the paper's "at least one additional
// job").
func RunMulti(cfg MultiConfig) (*MultiResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Env.Validate(); err != nil {
		return nil, err
	}
	if cfg.KMax < cfg.KMin {
		return nil, fmt.Errorf("kmeansmr: KMax (%d) below KMin (%d)", cfg.KMax, cfg.KMin)
	}
	start := time.Now()
	// Shared seeding: one reservoir sample; the center set for k is the
	// first k picked centers. One dataset read, shared across all k.
	initSpan := cfg.Env.Trace.StartSpan("init", "phase")
	sample, err := initialCenters(cfg)
	initSpan.End()
	if err != nil {
		return nil, err
	}
	var ks []int
	centerSets := make(map[int][]vec.Vector)
	for k := cfg.KMin; k <= cfg.KMax; k += cfg.KStep {
		ks = append(ks, k)
		centerSets[k] = vec.CloneAll(sample[:k])
	}

	res := &MultiResult{
		CentersByK: centerSets,
		WCSSByK:    make(map[int]float64),
		AvgDistByK: make(map[int]float64),
		Counters:   mr.NewCounters(),
	}
	for it := 0; it < cfg.Iterations; it++ {
		if err := cfg.Context().Err(); err != nil {
			return nil, err
		}
		itStart := time.Now()
		itSpan := cfg.Env.Trace.StartSpan(fmt.Sprintf("iter-%d", it+1), "phase")
		job, err := mrdist.Build(cfg.Env.Job(fmt.Sprintf("multi-k-means-iter-%d", it), multikSpec(centerSets, ks)))
		if err != nil {
			itSpan.End()
			return nil, err
		}
		jr, err := job.Run()
		if err != nil {
			itSpan.End()
			return nil, err
		}
		res.IterationTimes = append(res.IterationTimes, jr.Duration)
		jr.Counters.MergeInto(res.Counters)

		next := make(map[int][]vec.Vector, len(ks))
		for _, k := range ks {
			next[k] = vec.CloneAll(centerSets[k])
		}
		for _, kv := range jr.Output {
			k := int(kv.Key / KeyStride)
			cid := kv.Key % KeyStride
			wp, ok := kv.Value.(mr.WeightedPointValue)
			if !ok {
				return nil, fmt.Errorf("kmeansmr: unexpected multi-k output %T", kv.Value)
			}
			set, exists := next[k]
			if !exists || cid < 0 || cid >= int64(len(set)) {
				return nil, fmt.Errorf("kmeansmr: output key (k=%d, center=%d) out of range", k, cid)
			}
			if wp.Count > 0 {
				set[cid] = wp.Centroid()
			}
		}
		for _, k := range ks {
			centerSets[k] = next[k]
		}
		itSpan.End()
		// Progress reports the iteration's own wall time — job plus the
		// center updates above — so every callback (and the facade's
		// Progress.Duration) carries per-round semantics, not cumulative
		// and not job-only.
		if cfg.Progress != nil {
			cfg.Progress(it+1, time.Since(itStart))
		}
	}
	res.CentersByK = centerSets
	res.Duration = time.Since(start)
	return res, nil
}

// initialCenters draws the KMax shared initial centers per the configured
// seeding strategy.
func initialCenters(cfg MultiConfig) ([]vec.Vector, error) {
	switch cfg.Seeding {
	case MultiSeedPlusPlus:
		// Oversample uniformly, then run k-means++ selection over the
		// sample. The sample bound keeps the driver-side work O(sample × k)
		// regardless of dataset size, mirroring the two-phase structure of
		// scalable k-means++ (oversample in parallel, select serially).
		sampleSize := 20 * cfg.KMax
		if sampleSize < 2000 {
			sampleSize = 2000
		}
		pool, err := SampleUpTo(cfg.Env, sampleSize, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if len(pool) < cfg.KMax {
			return nil, fmt.Errorf("kmeansmr: dataset has only %d points, need %d centers", len(pool), cfg.KMax)
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		return lloyd.Seed(pool, cfg.KMax, lloyd.SeedPlusPlus, rng), nil
	default:
		return SamplePoints(cfg.Env, cfg.KMax, cfg.Seed)
	}
}

// evalValue carries the partial per-k quality sums of the evaluation job.
type evalValue struct {
	SumD2 float64
	SumD  float64
	Count int64
}

func (evalValue) ByteSize() int { return 24 }

// evalMapper scores every candidate k in one pass with in-mapper
// combining: the grouped assignment multiMapper uses returns each point's
// nearest squared distance under every k (bit-identical to
// vec.NearestIndex's), and the quality sums fold in input-record order
// into one accumulator per k, flushed in Close.
type evalMapper struct {
	plan   *groupPlan
	ks     []int
	acc    []evalValue
	assign groupAssigner
	dists  int64
}

func (m *evalMapper) Setup(*mr.TaskContext) error {
	m.acc = make([]evalValue, len(m.ks))
	m.assign.plan = m.plan
	return nil
}

func (m *evalMapper) MapColumns(_ *mr.TaskContext, cols *dfs.ColumnarSplit, _ mr.Emitter) error {
	n := cols.Len()
	err := m.assign.assign(cols, func(i, _ int, _ []int32, dist []float64) error {
		a := &m.acc[i]
		for _, d2 := range dist {
			a.SumD2 += d2
			a.SumD += math.Sqrt(d2)
		}
		a.Count += int64(len(dist))
		return nil
	})
	if err != nil {
		return err
	}
	for _, set := range m.plan.sets {
		m.dists += int64(len(set)) * int64(n)
	}
	return nil
}

func (m *evalMapper) Close(ctx *mr.TaskContext, emit mr.Emitter) error {
	ctx.Count(CounterDistances, m.dists)
	for i, k := range m.ks {
		emit.Emit(int64(k), m.acc[i])
	}
	return nil
}

// evalReducer merges partial quality sums per k.
type evalReducer struct{}

func (evalReducer) Setup(*mr.TaskContext) error { return nil }

func (evalReducer) Reduce(_ *mr.TaskContext, key int64, values []mr.Value, emit mr.Emitter) error {
	var acc evalValue
	for _, v := range values {
		ev, ok := v.(evalValue)
		if !ok {
			return fmt.Errorf("kmeansmr: unexpected eval value %T", v)
		}
		acc.SumD2 += ev.SumD2
		acc.SumD += ev.SumD
		acc.Count += ev.Count
	}
	emit.Emit(key, acc)
	return nil
}

func (evalReducer) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// Evaluate runs the post-processing job that scores every candidate k
// (WCSS and average point-center distance) in a single dataset pass, and
// stores the results into res.
func Evaluate(cfg MultiConfig, res *MultiResult) error {
	cfg = cfg.withDefaults()
	var ks []int
	for k := range res.CentersByK {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	evalSpan := cfg.Env.Trace.StartSpan("evaluate", "phase")
	defer evalSpan.End()
	job, err := mrdist.Build(cfg.Env.Job("multi-k-means-evaluate", evalSpec(res.CentersByK, ks)))
	if err != nil {
		return err
	}
	jr, err := job.Run()
	if err != nil {
		return err
	}
	jr.Counters.MergeInto(res.Counters)
	for _, kv := range jr.Output {
		ev, ok := kv.Value.(evalValue)
		if !ok {
			return fmt.Errorf("kmeansmr: unexpected eval output %T", kv.Value)
		}
		k := int(kv.Key)
		res.WCSSByK[k] = ev.SumD2
		if ev.Count > 0 {
			res.AvgDistByK[k] = ev.SumD / float64(ev.Count)
		}
	}
	return nil
}
