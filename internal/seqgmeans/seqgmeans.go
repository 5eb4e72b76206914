// Package seqgmeans implements the original, sequential G-means algorithm
// of Hamerly & Elkan ("Learning the k in k-means", NIPS 2003) exactly as
// the reproduced paper describes it in §2: clusters are analyzed locally,
// one at a time; candidate children are initialized deterministically
// along the cluster's principal component (c ± m with |m| = σ√(2λ/π)
// where λ is the principal eigenvalue); a cluster splits when the
// Anderson–Darling test rejects Gaussianity of its points projected on
// the child-connecting vector.
//
// It serves two purposes: a correctness reference for the MapReduce
// version (internal/core), which places the same principal-component
// children through an extra MapReduce job but tests and splits every
// cluster in parallel each round, and a practical in-memory k-finder for
// datasets that fit in RAM.
package seqgmeans

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/stats"
	"gmeansmr/internal/vec"
)

const (
	// minSplitSize is the smallest cluster tested for a split; smaller
	// ones are final.
	minSplitSize = 25
	// lloydIterations bounds every inner Lloyd run.
	lloydIterations = 50
)

// Config parameterizes a sequential G-means run.
type Config struct {
	// Alpha is the Anderson–Darling significance level (0 = 0.0001).
	Alpha float64
	// MaxK bounds the number of clusters (0 = 1024).
	MaxK int
	Seed int64
	// Progress, when non-nil, is invoked as the work queue advances, with
	// the counts of finalized centers, clusters still queued, tests run and
	// accepted splits so far.
	Progress func(found, pending, tests, splits int)
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.0001
	}
	if c.MaxK <= 0 {
		c.MaxK = 1024
	}
	return c
}

// Result is the outcome of a sequential G-means run.
type Result struct {
	Centers    []vec.Vector
	K          int
	Assignment []int
	WCSS       float64
	// Splits is the number of accepted splits (k-1 when starting from 1).
	Splits int
	// Tests is the number of Anderson–Darling tests performed.
	Tests int
}

// Run executes sequential G-means starting from a single cluster.
func Run(points []vec.Vector, cfg Config) (*Result, error) {
	return RunContext(context.Background(), points, cfg)
}

// RunContext is Run with cancellation: ctx is checked before every cluster
// test, so a cancelled run returns promptly with ctx.Err().
func RunContext(ctx context.Context, points []vec.Vector, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(points) == 0 {
		return nil, errors.New("seqgmeans: no points")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{}

	// Work queue of clusters to test, each a set of point indexes with its
	// current center.
	type work struct {
		members []int
		center  vec.Vector
	}
	all := make([]int, len(points))
	for i := range all {
		all[i] = i
	}
	queue := []work{{members: all, center: vec.Mean(points)}}
	var final []vec.Vector

	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := queue[0]
		queue = queue[1:]
		if cfg.Progress != nil {
			cfg.Progress(len(final), len(queue), res.Tests, res.Splits)
		}

		if len(w.members) < minSplitSize || len(final)+len(queue)+2 > cfg.MaxK {
			final = append(final, w.center)
			continue
		}
		sub := gather(points, w.members)

		// 1. Find two children and refine them with k-means on the subset.
		c1, c2 := children(sub, w.center, rng)
		split, err := lloyd.RunFrom(sub, []vec.Vector{c1, c2}, lloyd.Config{
			MaxIterations: lloydIterations,
		})
		if err != nil {
			return nil, err
		}
		c1, c2 = split.Centers[0], split.Centers[1]

		// 2–6. Project on v = c1−c2, normalize, Anderson–Darling.
		v := vec.NewAxis(vec.Sub(c1, c2))
		projections := make([]float64, len(sub))
		for i, p := range sub {
			projections[i] = v.Project(p)
		}
		res.Tests++
		ad, err := stats.ADTest(projections, cfg.Alpha, 8)
		if err != nil || ad.Normal {
			// Gaussian (or undecidable): keep the original center.
			final = append(final, w.center)
			continue
		}

		// Split: recurse on each child's member set.
		res.Splits++
		var m1, m2 []int
		for i, a := range split.Assignment {
			if a == 0 {
				m1 = append(m1, w.members[i])
			} else {
				m2 = append(m2, w.members[i])
			}
		}
		if len(m1) == 0 || len(m2) == 0 {
			final = append(final, w.center)
			continue
		}
		queue = append(queue,
			work{members: m1, center: c1},
			work{members: m2, center: c2})
	}

	// Global refinement with the discovered centers, as the original
	// algorithm's final k-means pass.
	finalRun, err := lloyd.RunFrom(points, final, lloyd.Config{MaxIterations: lloydIterations})
	if err != nil {
		return nil, err
	}
	res.Centers = finalRun.Centers
	res.K = len(finalRun.Centers)
	res.Assignment = finalRun.Assignment
	res.WCSS = finalRun.WCSS
	return res, nil
}

// children places the two candidate children for a cluster at c ± m along
// its principal component, the Hamerly–Elkan prescription. A cluster of
// fewer than two points has no principal component and gets random
// members instead.
func children(sub []vec.Vector, center vec.Vector, rng *rand.Rand) (vec.Vector, vec.Vector) {
	if len(sub) < 2 {
		i := rng.Intn(len(sub))
		j := rng.Intn(len(sub))
		if j == i {
			j = (j + 1) % len(sub)
		}
		return vec.Clone(sub[i]), vec.Clone(sub[j])
	}
	dir, lambda := PrincipalComponent(sub, 50, rng)
	// m = dir · σ√(2λ/π): the offset that splits a Gaussian into its two
	// half-masses' centroids (Hamerly & Elkan, §3).
	scale := math.Sqrt(2 * lambda / math.Pi)
	m := vec.Scale(dir, scale)
	return vec.Add(center, m), vec.Sub(center, m)
}

// PrincipalComponent estimates the dominant eigenvector and eigenvalue of
// the sample covariance of points by power iteration (iters rounds). The
// returned direction has unit norm. Degenerate inputs (zero covariance)
// yield an arbitrary unit direction with eigenvalue 0.
func PrincipalComponent(points []vec.Vector, iters int, rng *rand.Rand) (vec.Vector, float64) {
	if len(points) == 0 {
		panic("seqgmeans: PrincipalComponent of empty set")
	}
	d := len(points[0])
	mean := vec.Mean(points)
	centered := make([]vec.Vector, len(points))
	for i, p := range points {
		centered[i] = vec.Sub(p, mean)
	}
	// Power iteration on C·x implemented as Σ (cᵢ·x)·cᵢ / (n-1) without
	// materializing the d×d covariance — O(n·d) per round.
	x := make(vec.Vector, d)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	normalize(x)
	var lambda float64
	n1 := float64(len(points) - 1)
	if n1 <= 0 {
		n1 = 1
	}
	for it := 0; it < iters; it++ {
		next := make(vec.Vector, d)
		for _, c := range centered {
			w := vec.Dot(c, x)
			for j := range next {
				next[j] += w * c[j]
			}
		}
		vec.ScaleInPlace(next, 1/n1)
		lambda = vec.Norm(next)
		if lambda == 0 {
			return x, 0
		}
		vec.ScaleInPlace(next, 1/lambda)
		x = next
	}
	return x, lambda
}

func normalize(v vec.Vector) {
	n := vec.Norm(v)
	if n == 0 {
		v[0] = 1
		return
	}
	vec.ScaleInPlace(v, 1/n)
}

func gather(points []vec.Vector, idx []int) []vec.Vector {
	out := make([]vec.Vector, len(idx))
	for i, j := range idx {
		out[i] = points[j]
	}
	return out
}
