package core

import (
	"fmt"
	"math"
	"math/rand"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/vec"
)

// This file implements the candidate-selection variant the paper sketches:
// "In our implementation, the new centers are chosen randomly. More
// sophisticated algorithms can be used to select the new points, but they
// may require an additional MapReduce job." The additional job is built
// here: per current center it aggregates the cluster's mean and covariance
// (in-mapper combining, one value per center per map task), the reducer
// extracts the principal component by power iteration and emits the two
// Hamerly–Elkan children c ± dir·√(2λ/π) — the deterministic placement of
// the original sequential algorithm, at the price of one extra dataset
// read per G-means round.

// CandidatePolicy selects how next-round candidate centers are picked.
type CandidatePolicy int

// Candidate policies.
const (
	// CandidatesRandom keeps two random cluster points via the fused
	// KMeansAndFindNewCenters job — the paper's implementation. Default.
	CandidatesRandom CandidatePolicy = iota
	// CandidatesPCA runs the additional covariance job and places
	// children along each cluster's principal component.
	CandidatesPCA
)

func (c CandidatePolicy) String() string {
	if c == CandidatesPCA {
		return "pca"
	}
	return "random"
}

// covValue accumulates the sufficient statistics of one cluster for mean
// and covariance: Σx, Σx·xᵀ (dense row-major d×d) and the count.
type covValue struct {
	Sum   vec.Vector
	Outer []float64
	Count int64
}

// ByteSize is d doubles + d² doubles + a long.
func (v covValue) ByteSize() int { return 8*len(v.Sum) + 8*len(v.Outer) + 8 }

func newCovValue(d int) *covValue {
	return &covValue{Sum: make(vec.Vector, d), Outer: make([]float64, d*d)}
}

func (v *covValue) add(p vec.Vector) {
	d := len(p)
	for i := 0; i < d; i++ {
		v.Sum[i] += p[i]
		row := v.Outer[i*d:]
		for j := 0; j < d; j++ {
			row[j] += p[i] * p[j]
		}
	}
	v.Count++
}

func (v *covValue) merge(o covValue) {
	for i := range v.Sum {
		v.Sum[i] += o.Sum[i]
	}
	for i := range v.Outer {
		v.Outer[i] += o.Outer[i]
	}
	v.Count += o.Count
}

// pcaMapper assigns each point to its nearest center and accumulates the
// per-cluster covariance statistics locally, emitting one value per
// cluster in Close (in-mapper combining — a d×d accumulator per cluster is
// tiny next to the split's points).
type pcaMapper struct {
	centers []vec.Vector
	acc     map[int]*covValue
	batch   kmeansmr.BatchAssigner
}

func (m *pcaMapper) Setup(*mr.TaskContext) error {
	m.acc = make(map[int]*covValue)
	return nil
}

// MapColumns batches the assignment; covariance statistics then
// accumulate per point in input order.
func (m *pcaMapper) MapColumns(ctx *mr.TaskContext, cols *dfs.ColumnarSplit, _ mr.Emitter) error {
	n := cols.Len()
	idx := m.batch.Assign(m.centers, cols)
	ctx.Count(kmeansmr.CounterIDDistances, int64(len(m.centers))*int64(n))
	for j, best := range idx {
		a := m.acc[int(best)]
		if a == nil {
			a = newCovValue(cols.Dim())
			m.acc[int(best)] = a
		}
		a.add(cols.At(j))
	}
	return nil
}

func (m *pcaMapper) Close(_ *mr.TaskContext, emit mr.Emitter) error {
	for c, a := range m.acc {
		emit.Emit(int64(c), *a)
	}
	return nil
}

// pcaReducer merges the per-cluster statistics and emits the two principal
// children for each center.
type pcaReducer struct {
	seed int64
}

func (r *pcaReducer) Setup(*mr.TaskContext) error { return nil }

func (r *pcaReducer) Reduce(ctx *mr.TaskContext, key int64, values []mr.Value, emit mr.Emitter) error {
	var acc *covValue
	for _, v := range values {
		cv, ok := v.(covValue)
		if !ok {
			return fmt.Errorf("core: unexpected covariance value %T", v)
		}
		if acc == nil {
			a := newCovValue(len(cv.Sum))
			acc = a
		}
		acc.merge(cv)
	}
	if acc == nil || acc.Count == 0 {
		return nil
	}
	d := len(acc.Sum)
	n := float64(acc.Count)
	mean := vec.Scale(acc.Sum, 1/n)
	cov := make([]float64, d*d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			cov[i*d+j] = acc.Outer[i*d+j]/n - mean[i]*mean[j]
		}
	}
	// Deterministic per-key start vector keeps runs reproducible across
	// any partitioning.
	rng := rand.New(rand.NewSource(r.seed*999_983 ^ key))
	dir, lambda := powerIteration(cov, d, 50, rng)
	if lambda <= 0 {
		// Degenerate cluster (point mass): fall back to the mean twice;
		// the driver treats identical children as "nothing to split".
		emit.Emit(key, mr.PointValue{Coords: mean})
		emit.Emit(key, mr.PointValue{Coords: vec.Clone(mean)})
		return nil
	}
	m := vec.Scale(dir, math.Sqrt(2*lambda/math.Pi))
	emit.Emit(key, mr.PointValue{Coords: vec.Add(mean, m)})
	emit.Emit(key, mr.PointValue{Coords: vec.Sub(mean, m)})
	return nil
}

func (r *pcaReducer) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// powerIteration extracts the dominant eigenpair of the dense symmetric
// matrix cov (row-major d×d).
func powerIteration(cov []float64, d, iters int, rng *rand.Rand) (vec.Vector, float64) {
	x := make(vec.Vector, d)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	norm := vec.Norm(x)
	if norm == 0 {
		x[0] = 1
	} else {
		vec.ScaleInPlace(x, 1/norm)
	}
	var lambda float64
	y := make(vec.Vector, d)
	for it := 0; it < iters; it++ {
		for i := 0; i < d; i++ {
			var s float64
			row := cov[i*d:]
			for j := 0; j < d; j++ {
				s += row[j] * x[j]
			}
			y[i] = s
		}
		lambda = vec.Norm(y)
		if lambda == 0 {
			return x, 0
		}
		for i := range x {
			x[i] = y[i] / lambda
		}
	}
	return x, lambda
}

// runPCACandidates executes the additional candidate-selection job over
// the given centers and returns two principal-component children per
// center (entries may be nil for empty clusters).
func runPCACandidates(cfg Config, centers []vec.Vector, round int) ([][]vec.Vector, *mr.Result, error) {
	spec := pcaSpec(cfg, centers, round)
	parts, err := buildPCA(spec.Payload)
	if err != nil {
		return nil, nil, err
	}
	res, err := parts.Install(cfg.Env.Job(fmt.Sprintf("gmeans-pca-candidates-round-%d", round), spec)).Run()
	if err != nil {
		return nil, nil, err
	}
	candidates := make([][]vec.Vector, len(centers))
	for _, kv := range res.Output {
		pv, ok := kv.Value.(mr.PointValue)
		if !ok {
			return nil, nil, fmt.Errorf("core: unexpected PCA output %T", kv.Value)
		}
		if kv.Key < 0 || kv.Key >= int64(len(centers)) {
			return nil, nil, fmt.Errorf("core: PCA output key %d out of range", kv.Key)
		}
		if len(candidates[kv.Key]) < 2 {
			candidates[kv.Key] = append(candidates[kv.Key], pv.Coords)
		}
	}
	return candidates, res, nil
}
