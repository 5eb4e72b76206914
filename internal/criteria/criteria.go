// Package criteria implements the cluster-count selection criteria, from
// those the paper surveys in its related work (§2), that this repository
// selects k with: the elbow method, average silhouette, the jump method,
// and BIC. These are what a multi-k-means pipeline applies after
// computing centers for every candidate k ("multi-k-means requires at
// least one additional job to find the correct value of k").
package criteria

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/vec"
)

// ErrNeedTwoK is returned by selectors that need at least two candidate k
// values to compare.
var ErrNeedTwoK = errors.New("criteria: need results for at least two values of k")

// Clustering bundles one candidate clustering (for a given k) with the data
// it partitions, as produced by multi-k-means or repeated Lloyd runs.
type Clustering struct {
	K          int
	Centers    []vec.Vector
	Assignment []int
	WCSS       float64
}

// FromResult adapts a lloyd.Result into a Clustering.
func FromResult(r *lloyd.Result) Clustering {
	return Clustering{K: len(r.Centers), Centers: r.Centers, Assignment: r.Assignment, WCSS: r.WCSS}
}

// ElbowK picks k by the elbow criterion, using the drop-ratio form: the k
// that maximizes (W_{k-1} − W_k) / (W_k − W_{k+1}), i.e. the point where a
// large real improvement is followed by only marginal gains. This variant
// is robust to the geometric decay of WCSS that defeats the raw
// second-difference rule. The input must be ordered by ascending K with
// consecutive candidates.
func ElbowK(cs []Clustering) (int, error) {
	if len(cs) < 3 {
		return 0, fmt.Errorf("%w (and a third for curvature)", ErrNeedTwoK)
	}
	// Scale-free epsilon keeps the ratio finite when the curve flattens to
	// numerical noise.
	eps := cs[0].WCSS * 1e-12
	if eps <= 0 {
		eps = 1e-12
	}
	bestK, bestRatio := cs[1].K, math.Inf(-1)
	for i := 1; i < len(cs)-1; i++ {
		gain := cs[i-1].WCSS - cs[i].WCSS
		next := cs[i].WCSS - cs[i+1].WCSS
		ratio := gain / (math.Max(next, 0) + eps)
		if ratio > bestRatio {
			bestRatio, bestK = ratio, cs[i].K
		}
	}
	return bestK, nil
}

// Silhouette returns the mean silhouette coefficient of the clustering,
// computed on a uniform sample of at most sampleSize points (0 = all).
// Exact silhouette is O(n²); sampling keeps it usable on the scaled paper
// workloads while preserving the criterion's shape.
func Silhouette(points []vec.Vector, c Clustering, sampleSize int, seed int64) float64 {
	n := len(points)
	if n == 0 || c.K < 2 {
		return 0
	}
	idx := sampleIndexes(n, sampleSize, seed)

	// Bucket points per cluster once.
	clusters := make([][]int, c.K)
	for i, a := range c.Assignment {
		clusters[a] = append(clusters[a], i)
	}

	var total float64
	var counted int
	for _, i := range idx {
		own := c.Assignment[i]
		if len(clusters[own]) < 2 {
			continue // silhouette undefined for singleton clusters
		}
		a := meanDistTo(points, points[i], clusters[own], i)
		b := math.Inf(1)
		for cl := 0; cl < c.K; cl++ {
			if cl == own || len(clusters[cl]) == 0 {
				continue
			}
			if d := meanDistTo(points, points[i], clusters[cl], -1); d < b {
				b = d
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

func meanDistTo(points []vec.Vector, p vec.Vector, members []int, exclude int) float64 {
	var s float64
	var n int
	for _, m := range members {
		if m == exclude {
			continue
		}
		s += vec.Dist(p, points[m])
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// SilhouetteK picks the candidate with the highest mean silhouette.
func SilhouetteK(points []vec.Vector, cs []Clustering, sampleSize int, seed int64) (int, error) {
	if len(cs) < 2 {
		return 0, ErrNeedTwoK
	}
	bestK, bestS := 0, math.Inf(-1)
	for _, c := range cs {
		if s := Silhouette(points, c, sampleSize, seed); s > bestS {
			bestS, bestK = s, c.K
		}
	}
	return bestK, nil
}

// JumpK implements Sugar & James' jump method: distortions d_k = WCSS/(n·p)
// are raised to the power −p/2 (the recommended transformation) and the k
// with the largest jump d_k^{-p/2} − d_{k-1}^{-p/2} wins. The candidate
// list must be ordered by ascending k, ideally starting at k=1.
func JumpK(points []vec.Vector, cs []Clustering) (int, error) {
	if len(cs) < 2 {
		return 0, ErrNeedTwoK
	}
	p := float64(len(points[0]))
	n := float64(len(points))
	y := -p / 2
	prev := 0.0 // d_0^{-p/2} is defined as 0
	bestK, bestJump := 0, math.Inf(-1)
	for _, c := range cs {
		d := c.WCSS / (n * p)
		var t float64
		if d > 0 {
			t = math.Pow(d, y)
		} else {
			t = math.Inf(1)
		}
		jump := t - prev
		if jump > bestJump {
			bestJump, bestK = jump, c.K
		}
		prev = t
	}
	return bestK, nil
}

// BIC scores a clustering under the spherical-Gaussian model of Pelleg &
// Moore's X-means: higher is better. It is exposed here because BIC is also
// a usable "pick k" criterion over multi-k-means output.
func BIC(points []vec.Vector, c Clustering) float64 {
	n := float64(len(points))
	if n == 0 || c.K == 0 {
		return math.Inf(-1)
	}
	d := float64(len(points[0]))
	k := float64(c.K)
	// Maximum-likelihood variance estimate under identical spherical
	// covariance across clusters.
	denom := n - k
	if denom <= 0 {
		denom = 1
	}
	sigma2 := c.WCSS / (d * denom)
	if sigma2 <= 0 {
		sigma2 = math.SmallestNonzeroFloat64
	}
	sizes := make([]float64, c.K)
	for _, a := range c.Assignment {
		sizes[a]++
	}
	var ll float64
	for _, ni := range sizes {
		if ni == 0 {
			continue
		}
		ll += ni*math.Log(ni) - ni*math.Log(n) -
			ni*d/2*math.Log(2*math.Pi*sigma2) - (ni-1)*d/2
	}
	params := k * (d + 1) // centers + shared variance per cluster (X-means counting)
	return ll - params/2*math.Log(n)
}

// BICK picks the candidate with the highest BIC score.
func BICK(points []vec.Vector, cs []Clustering) (int, error) {
	if len(cs) < 2 {
		return 0, ErrNeedTwoK
	}
	bestK, best := 0, math.Inf(-1)
	for _, c := range cs {
		if s := BIC(points, c); s > best {
			best, bestK = s, c.K
		}
	}
	return bestK, nil
}

func sampleIndexes(n, sampleSize int, seed int64) []int {
	if sampleSize <= 0 || sampleSize >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm(n)[:sampleSize]
}
