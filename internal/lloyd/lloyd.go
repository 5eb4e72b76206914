// Package lloyd implements sequential k-means (Lloyd's algorithm) with
// random and k-means++ seeding. It is the in-memory reference against which
// the MapReduce implementations are validated, the inner engine of the
// X-means baseline, and what the examples use for small data.
package lloyd

import (
	"errors"
	"fmt"
	"math/rand"

	"gmeansmr/internal/vec"
)

// ErrNoPoints is returned when clustering an empty dataset.
var ErrNoPoints = errors.New("lloyd: no points")

// Seeding selects the initial-center strategy.
type Seeding int

// Seeding strategies.
const (
	// SeedRandom picks k distinct points uniformly at random, the paper's
	// PickInitialCenters ("picks initial centers at random").
	SeedRandom Seeding = iota
	// SeedPlusPlus is k-means++ (Arthur & Vassilvitskii 2007), discussed in
	// the paper's related work as the standard smarter initializer.
	SeedPlusPlus
)

// Config parameterizes a k-means run.
type Config struct {
	K             int
	MaxIterations int     // zero selects 100
	Epsilon       float64 // center-movement convergence threshold; zero selects 1e-9
	Seeding       Seeding
	Seed          int64
}

func (c Config) withDefaults() Config {
	if c.MaxIterations == 0 {
		c.MaxIterations = 100
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-9
	}
	return c
}

// Result is the outcome of a k-means run.
type Result struct {
	Centers    []vec.Vector
	Assignment []int // index of the center owning each input point
	WCSS       float64
	Iterations int
	Converged  bool
}

// Run clusters points into cfg.K clusters and returns the final centers,
// assignment and within-cluster sum of squares.
func Run(points []vec.Vector, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("lloyd: K must be positive, got %d", cfg.K)
	}
	if cfg.K > len(points) {
		return nil, fmt.Errorf("lloyd: K (%d) exceeds point count (%d)", cfg.K, len(points))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := Seed(points, cfg.K, cfg.Seeding, rng)
	return RunFrom(points, centers, cfg)
}

// RunFrom runs Lloyd iterations starting from the supplied centers (which
// are not modified). It is used directly by G-means and multi-k-means
// style drivers that manage their own center lifecycles.
func RunFrom(points []vec.Vector, initial []vec.Vector, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	if len(initial) == 0 {
		return nil, errors.New("lloyd: no initial centers")
	}
	centers := vec.CloneAll(initial)
	assign := make([]int, len(points))
	res := &Result{}
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		res.Iterations = iter
		// Assignment step.
		for i, p := range points {
			assign[i], _ = vec.NearestIndex(p, centers)
		}
		// Update step.
		sums := make([]vec.WeightedPoint, len(centers))
		for i, p := range points {
			if sums[assign[i]].Sum == nil {
				sums[assign[i]].Sum = make(vec.Vector, len(p))
			}
			vec.AddInPlace(sums[assign[i]].Sum, p)
			sums[assign[i]].Count++
		}
		maxMove := 0.0
		for c := range centers {
			if sums[c].Count == 0 {
				// Empty cluster: keep the stale center, the conventional
				// Lloyd treatment (matches the MR reducer, which simply
				// receives no group for that key).
				continue
			}
			nc := sums[c].Centroid()
			if move := vec.Dist(nc, centers[c]); move > maxMove {
				maxMove = move
			}
			centers[c] = nc
		}
		if maxMove <= cfg.Epsilon {
			res.Converged = true
			break
		}
	}
	// Final assignment against the final centers.
	for i, p := range points {
		assign[i], _ = vec.NearestIndex(p, centers)
	}
	res.Centers = centers
	res.Assignment = assign
	res.WCSS = WCSS(points, centers, assign)
	return res, nil
}

// Seed draws k initial centers from points using the requested strategy.
func Seed(points []vec.Vector, k int, strategy Seeding, rng *rand.Rand) []vec.Vector {
	switch strategy {
	case SeedPlusPlus:
		return seedPlusPlus(points, k, rng)
	default:
		return seedRandom(points, k, rng)
	}
}

func seedRandom(points []vec.Vector, k int, rng *rand.Rand) []vec.Vector {
	idx := rng.Perm(len(points))[:k]
	out := make([]vec.Vector, k)
	for i, j := range idx {
		out[i] = vec.Clone(points[j])
	}
	return out
}

// seedPlusPlus implements k-means++: each next center is drawn with
// probability proportional to its squared distance from the nearest center
// already chosen.
func seedPlusPlus(points []vec.Vector, k int, rng *rand.Rand) []vec.Vector {
	out := make([]vec.Vector, 0, k)
	out = append(out, vec.Clone(points[rng.Intn(len(points))]))
	d2 := make([]float64, len(points))
	for i, p := range points {
		d2[i] = vec.Dist2(p, out[0])
	}
	for len(out) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var chosen int
		if total <= 0 {
			chosen = rng.Intn(len(points))
		} else {
			r := rng.Float64() * total
			acc := 0.0
			chosen = len(points) - 1
			for i, d := range d2 {
				acc += d
				if acc >= r {
					chosen = i
					break
				}
			}
		}
		c := vec.Clone(points[chosen])
		out = append(out, c)
		for i, p := range points {
			if d := vec.Dist2(p, c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return out
}

// WCSS computes the within-cluster sum of squares of an assignment — the
// objective k-means minimizes and the quality metric of the paper's
// Table 3.
func WCSS(points []vec.Vector, centers []vec.Vector, assign []int) float64 {
	var s float64
	for i, p := range points {
		s += vec.Dist2(p, centers[assign[i]])
	}
	return s
}

// AverageDistance computes the mean Euclidean distance from each point to
// its assigned center, the exact statistic the paper's Table 3 reports
// ("the average distance between points and their centers").
func AverageDistance(points []vec.Vector, centers []vec.Vector, assign []int) float64 {
	if len(points) == 0 {
		return 0
	}
	var s float64
	for i, p := range points {
		s += vec.Dist(p, centers[assign[i]])
	}
	return s / float64(len(points))
}

// Assign computes the nearest-center assignment for points through the
// fused batch kernel (vec.CenterPack.NearestRows transposes the points
// tile by tile). Each entry is the index vec.NearestIndex returns for the
// point, including -1 when there are no centers or every distance is
// non-finite.
func Assign(points []vec.Vector, centers []vec.Vector) []int {
	out := make([]int, len(points))
	if len(centers) == 0 {
		for i := range out {
			out[i] = -1
		}
		return out
	}
	idx, _ := vec.PackCenters(centers).NearestRows(points, nil)
	for i, c := range idx {
		out[i] = int(c)
	}
	return out
}

// BestOf runs Lloyd's algorithm `restarts` times with different seeds and
// returns the run with the lowest WCSS — the standard defense against local
// minima the paper mentions ("a production version of multi-k-means thus
// requires multiple runs with different starting points").
func BestOf(points []vec.Vector, cfg Config, restarts int) (*Result, error) {
	if restarts < 1 {
		restarts = 1
	}
	var best *Result
	for r := 0; r < restarts; r++ {
		c := cfg
		c.Seed = cfg.Seed + int64(r)*1_000_003
		res, err := Run(points, c)
		if err != nil {
			return nil, err
		}
		if best == nil || res.WCSS < best.WCSS {
			best = res
		}
	}
	return best, nil
}
