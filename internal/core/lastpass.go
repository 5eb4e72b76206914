package core

import (
	"fmt"
	"math"
	"math/rand"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/mrdist"
	"gmeansmr/internal/vec"
)

// This file implements the round's KMeansAndFindNewCenters step as one
// job: the last k-means pass, which also gathers each unfrozen cluster's
// scatter about its input center, so that the reducer can place the two
// children along the cluster's principal component (Hamerly & Elkan's
// placement). The paper picks children at random and expects better
// picks to "require an additional MapReduce job"; here one assignment and
// one dataset read buy both the refined centers and their children.

// covValue is one cluster's partial statistics from one map task: Σx and
// the count, accumulated exactly as the k-means pass accumulates them, and
// for an unfrozen cluster the upper triangle of Σ(x−c)(x−c)ᵀ about the
// pass's input center c, packed row by row (row i holds columns i..d−1).
// Shifting by c keeps the sums small whatever the data's offset. Frozen
// clusters carry no Scatter.
type covValue struct {
	vec.WeightedPoint
	Scatter []float64
}

// ByteSize is the weighted point plus d(d+1)/2 doubles.
func (v covValue) ByteSize() int { return v.WeightedPoint.ByteSize() + 8*len(v.Scatter) }

// triangleLen is the length of a packed upper triangle of a d×d matrix.
func triangleLen(d int) int { return d * (d + 1) / 2 }

// addScatter4 folds four shifted points y = x − c, in the order y0, y1,
// y2, y3. Every entry adds the same products in the same order as four
// one-point folds, so the result is the same bit for bit; but each entry
// is loaded and stored once per four points instead of once per point.
// An all-zero y adds +0 to every entry, which changes no entry: a sum
// that starts at +0 is never −0.
func (v *covValue) addScatter4(y0, y1, y2, y3 vec.Vector) {
	d := len(y0)
	y1, y2, y3 = y1[:d], y2[:d], y3[:d]
	for i, off := 0, 0; i < d; off, i = off+d-i, i+1 {
		a0, a1, a2, a3 := y0[i], y1[i], y2[i], y3[i]
		row := v.Scatter[off : off+d-i]
		for j := range row {
			row[j] = row[j] + a0*y0[i+j] + a1*y1[i+j] + a2*y2[i+j] + a3*y3[i+j]
		}
	}
}

// merge folds another task's statistics in, Σx and the count as
// kmeansmr.MergeReducer folds them.
func (v *covValue) merge(o covValue) {
	v.Merge(o.WeightedPoint)
	if v.Scatter == nil && o.Scatter != nil {
		v.Scatter = make([]float64, len(o.Scatter))
	}
	for i, s := range o.Scatter {
		v.Scatter[i] += s
	}
}

// covariance derives the cluster's covariance about its mean from the
// scatter about the input center c: Cov = S/n − δδᵀ with δ = mean − c. It
// returns the dense row-major d×d matrix.
func (v *covValue) covariance(mean, c vec.Vector) []float64 {
	d := len(mean)
	n := float64(v.Count)
	delta := vec.Sub(mean, c)
	cov := make([]float64, d*d)
	for i, off := 0, 0; i < d; off, i = off+d-i, i+1 {
		for j := i; j < d; j++ {
			x := v.Scatter[off+j-i]/n - delta[i]*delta[j]
			cov[i*d+j], cov[j*d+i] = x, x
		}
	}
	return cov
}

// kfncMapper is the last k-means pass of a round with in-mapper
// combining: one batched assignment against the pass's input centers,
// then Σx and the count of every center in input order, as the k-means
// pass's mapper accumulates them, and the scatter about the input center
// of every unfrozen one. centers[0:foundCount] are frozen: points still
// assign to them, but the driver never reads their children, so their
// scatter is not accumulated. Close emits one covValue per non-empty
// center.
type kfncMapper struct {
	centers    []vec.Vector
	foundCount int

	sums    *kmeansmr.CenterSums
	scatter []covValue // of the unfrozen centers; only Scatter is used
	batch   kmeansmr.BatchAssigner
}

func (m *kfncMapper) Setup(*mr.TaskContext) error {
	m.sums = kmeansmr.NewCenterSums(m.centers)
	m.scatter = make([]covValue, len(m.centers)-m.foundCount)
	return nil
}

// MapColumns batches the assignment and folds every point's coordinates
// into its center's Σx. It then groups the points of each unfrozen center
// with one counting pass over the index array, keeping input order within
// a center, and folds each cluster's shifted rows into its scatter four
// at a time, zero-padding the last group: every entry sums the same
// products in input order, as a per-point fold would.
func (m *kfncMapper) MapColumns(ctx *mr.TaskContext, cols *dfs.ColumnarSplit, _ mr.Emitter) error {
	n, d := cols.Len(), cols.Dim()
	idx := m.batch.Assign(m.centers, cols)
	ctx.Count(kmeansmr.CounterDistances, int64(len(m.centers))*int64(n))
	ctx.Count(kmeansmr.CounterPoints, int64(n))
	if !m.sums.Fold(cols.Rows(), idx) {
		return fmt.Errorf("core: point has no nearest center (all distances non-finite)")
	}

	live := len(m.centers) - m.foundCount
	if live <= 0 {
		return nil
	}
	// Counting sort of the unfrozen points by center. After the scatter,
	// end[c] is where center c's run in order ends and c+1's begins.
	end := make([]int, live+1)
	for _, best := range idx {
		if c := int(best) - m.foundCount; c >= 0 {
			end[c+1]++
		}
	}
	for c := 1; c <= live; c++ {
		end[c] += end[c-1]
	}
	order := make([]int32, end[live])
	for j, best := range idx {
		if c := int(best) - m.foundCount; c >= 0 {
			order[end[c]] = int32(j)
			end[c]++
		}
	}
	ctx.Count(CounterCovUpdates, int64(len(order))*int64(triangleLen(d)))
	var y [4]vec.Vector
	for k := range y {
		y[k] = make(vec.Vector, d)
	}
	for c, start := 0, 0; c < live; start, c = end[c], c+1 {
		rows := order[start:end[c]]
		if len(rows) == 0 {
			continue
		}
		a, center := &m.scatter[c], m.centers[c+m.foundCount]
		if a.Scatter == nil {
			a.Scatter = make([]float64, triangleLen(d))
		}
		for r := 0; r < len(rows); r += 4 {
			for k, yk := range y {
				if r+k >= len(rows) {
					clear(yk)
					continue
				}
				p := cols.At(int(rows[r+k]))
				for i := range yk {
					yk[i] = p[i] - center[i]
				}
			}
			a.addScatter4(y[0], y[1], y[2], y[3])
		}
	}
	return nil
}

func (m *kfncMapper) Close(_ *mr.TaskContext, emit mr.Emitter) error {
	for i := 0; i < m.sums.Len(); i++ {
		if wp, ok := m.sums.At(i); ok {
			v := covValue{WeightedPoint: wp}
			if i >= m.foundCount {
				v.Scatter = m.scatter[i-m.foundCount].Scatter
			}
			emit.Emit(int64(i), v)
		}
	}
	return nil
}

// kfncReducer merges a center's statistics in map-task order, as
// kmeansmr.MergeReducer does, and emits the center's Σx and count. For an
// unfrozen center it also emits the two principal children.
type kfncReducer struct {
	centers    []vec.Vector
	foundCount int
	seed       int64
}

func (r *kfncReducer) Setup(*mr.TaskContext) error { return nil }

func (r *kfncReducer) Reduce(_ *mr.TaskContext, key int64, values []mr.Value, emit mr.Emitter) error {
	var acc covValue
	for _, v := range values {
		cv, ok := v.(covValue)
		if !ok {
			return fmt.Errorf("core: unexpected last-pass value %T", v)
		}
		acc.merge(cv)
	}
	if acc.Count == 0 {
		return nil
	}
	emit.Emit(key, mr.WeightedPointValue{WeightedPoint: acc.WeightedPoint})
	if key < int64(r.foundCount) {
		return nil
	}
	mean := acc.Centroid()
	cov := acc.covariance(mean, r.centers[key])
	// Deterministic per-key start vector keeps runs reproducible across
	// any partitioning.
	rng := rand.New(rand.NewSource(r.seed*999_983 ^ key))
	dir, lambda := powerIteration(cov, len(mean), 50, rng)
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

func (r *kfncReducer) Close(*mr.TaskContext, mr.Emitter) error { return nil }

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

// lastPass runs the round's KMeansAndFindNewCenters step: one k-means
// pass over centers that also returns two principal-component children
// per unfrozen center (entries are nil for empty clusters and for the
// first foundCount centers, which are frozen). Its centers, sizes and
// distance count equal kmeansmr.Iterate's on the same centers, bit for
// bit.
func lastPass(cfg Config, centers []vec.Vector, foundCount, round int, counters *mr.Counters) (*kfncOutput, error) {
	job, err := mrdist.Build(cfg.Env.Job(fmt.Sprintf("gmeans-lastpass-round-%d", round), lastPassSpec(cfg, centers, foundCount, round)))
	if err != nil {
		return nil, err
	}
	res, err := job.Run()
	if err != nil {
		return nil, err
	}
	res.Counters.MergeInto(counters)
	out := &kfncOutput{
		centers:    vec.CloneAll(centers),
		sizes:      make([]int64, len(centers)),
		candidates: make([][]vec.Vector, len(centers)),
	}
	for _, kv := range res.Output {
		if kv.Key < 0 || kv.Key >= int64(len(centers)) {
			return nil, fmt.Errorf("core: last-pass output key %d out of range", kv.Key)
		}
		switch v := kv.Value.(type) {
		case mr.WeightedPointValue:
			out.centers[kv.Key] = v.Centroid()
			out.sizes[kv.Key] = v.Count
		case mr.PointValue:
			if len(out.candidates[kv.Key]) < 2 {
				out.candidates[kv.Key] = append(out.candidates[kv.Key], v.Coords)
			}
		default:
			return nil, fmt.Errorf("core: unexpected last-pass output %T", kv.Value)
		}
	}
	return out, nil
}
