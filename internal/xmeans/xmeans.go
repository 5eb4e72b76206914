// Package xmeans implements X-means (Pelleg & Moore, ICML 2000), the other
// iterative k-estimation algorithm the paper discusses in its related work:
// "X-means iteratively uses k-means to optimize the position of centers and
// increases the number of clusters if needed to optimize the Bayesian
// Information Criterion (BIC)". It serves as an additional baseline for the
// k-recovery comparison benchmarks.
package xmeans

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"gmeansmr/internal/criteria"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/vec"
)

// lloydIterations bounds every inner Lloyd run.
const lloydIterations = 50

// Config parameterizes an X-means run, which starts from one cluster.
type Config struct {
	// KMax caps the number of clusters; zero selects 64.
	KMax int
	Seed int64
	// Progress, when non-nil, is invoked after every improve-structure
	// round with the 1-based round number and the current center count.
	Progress func(round, k int)
}

func (c Config) withDefaults() Config {
	if c.KMax <= 0 {
		c.KMax = 64
	}
	return c
}

// Result is the outcome of an X-means run.
type Result struct {
	Centers    []vec.Vector
	K          int
	Assignment []int
	WCSS       float64
	// Rounds is the number of improve-structure rounds executed.
	Rounds int
}

// Run executes X-means: alternate "improve params" (Lloyd on the full
// center set) with "improve structure" (try splitting each cluster in two
// and keep the split when the information criterion of the local 2-means
// model beats the 1-cluster model).
func Run(points []vec.Vector, cfg Config) (*Result, error) {
	return RunContext(context.Background(), points, cfg)
}

// RunContext is Run with cancellation: ctx is checked at the top of every
// improve-structure round, so a cancelled run returns promptly with
// ctx.Err().
func RunContext(ctx context.Context, points []vec.Vector, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(points) == 0 {
		return nil, errors.New("xmeans: no points")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	res, err := lloyd.Run(points, lloyd.Config{
		K: 1, MaxIterations: lloydIterations,
		Seeding: lloyd.SeedPlusPlus, Seed: rng.Int63(),
	})
	if err != nil {
		return nil, err
	}
	centers := res.Centers
	rounds := 0
	for len(centers) < cfg.KMax {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rounds++
		// Improve params.
		full, err := lloyd.RunFrom(points, centers, lloyd.Config{MaxIterations: lloydIterations})
		if err != nil {
			return nil, err
		}
		centers = full.Centers

		// Improve structure: per-cluster split test.
		members := make([][]int, len(centers))
		for i, a := range full.Assignment {
			members[a] = append(members[a], i)
		}
		var next []vec.Vector
		splitAny := false
		for ci, m := range members {
			// The cap must account for splits already accepted this round:
			// len(next) holds the clusters committed so far (including the
			// extra centers of accepted splits) and len(centers)-ci the ones
			// still pending. Checking len(centers)+1 alone lets a round where
			// many clusters split at once blow straight through KMax — with
			// aggressively splittable data (e.g. collinear clusters) every
			// cluster passes the local test and k doubles past the cap.
			projected := len(next) + (len(centers) - ci)
			if len(m) < 4 || projected+1 > cfg.KMax {
				if len(m) > 0 {
					next = append(next, centers[ci])
				}
				continue
			}
			sub := make([]vec.Vector, len(m))
			for i, idx := range m {
				sub[i] = points[idx]
			}
			parentScore := scoreModel(sub, []vec.Vector{centers[ci]})
			split, err := lloyd.Run(sub, lloyd.Config{
				K: 2, MaxIterations: lloydIterations,
				Seeding: lloyd.SeedPlusPlus, Seed: rng.Int63(),
			})
			if err != nil {
				return nil, err
			}
			childScore := scoreModel(sub, split.Centers)
			if childScore > parentScore {
				next = append(next, split.Centers...)
				splitAny = true
			} else {
				next = append(next, centers[ci])
			}
		}
		centers = next
		if cfg.Progress != nil {
			cfg.Progress(rounds, len(centers))
		}
		if !splitAny {
			break
		}
	}

	final, err := lloyd.RunFrom(points, centers, lloyd.Config{MaxIterations: lloydIterations})
	if err != nil {
		return nil, err
	}
	return &Result{
		Centers:    final.Centers,
		K:          len(final.Centers),
		Assignment: final.Assignment,
		WCSS:       final.WCSS,
		Rounds:     rounds,
	}, nil
}

// scoreModel evaluates the BIC of a (sub)clustering; higher is better.
func scoreModel(points []vec.Vector, centers []vec.Vector) float64 {
	assign := lloyd.Assign(points, centers)
	c := criteria.Clustering{
		K:          len(centers),
		Centers:    centers,
		Assignment: assign,
		WCSS:       lloyd.WCSS(points, centers, assign),
	}
	if len(points) <= len(centers) {
		return math.Inf(-1)
	}
	return criteria.BIC(points, c)
}
