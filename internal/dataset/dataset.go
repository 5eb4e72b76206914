// Package dataset generates the synthetic workloads of the paper's
// evaluation — Gaussian mixtures with a known number of clusters in R^d —
// and provides the text encoding the MapReduce jobs consume (one point per
// line, space-separated coordinates, matching the paper's "point (text)"
// input format and its ~15-characters-per-dimension storage model).
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/pointtext"
	"gmeansmr/internal/vec"
)

// Spec describes a synthetic Gaussian-mixture dataset. The defaults mirror
// the paper's generator: cluster centers drawn uniformly in
// [0, CenterRange]^Dim, points drawn isotropically around their center with
// standard deviation StdDev.
type Spec struct {
	// K is the true number of clusters.
	K int
	// Dim is the dimensionality (the paper uses R² for illustrations and
	// R¹⁰ for the large runs).
	Dim int
	// N is the total number of points, spread (near-)evenly over clusters.
	N int
	// CenterRange is the side of the hypercube centers are drawn from;
	// zero selects 100, the range visible in the paper's Figures 1 and 4.
	CenterRange float64
	// StdDev is the per-coordinate standard deviation of each cluster;
	// zero selects 1.0.
	StdDev float64
	// MinSeparation, when positive, enforces a minimum pairwise distance
	// between generated centers by rejection sampling, so the "true k" is
	// well defined. A value around 6×StdDev keeps overlaps negligible.
	MinSeparation float64
	// Weights, when non-nil, sets the relative cluster sizes (must have
	// K positive entries). Nil means equal sizes. Skewed weights exercise
	// the "skewed data" reducer-imbalance concern the paper leaves as
	// future work.
	Weights []float64
	// Seed makes generation deterministic.
	Seed int64
}

func (s Spec) withDefaults() Spec {
	if s.CenterRange == 0 {
		s.CenterRange = 100
	}
	if s.StdDev == 0 {
		s.StdDev = 1
	}
	return s
}

// Validate reports a configuration error, if any.
func (s Spec) Validate() error {
	switch {
	case s.K <= 0:
		return fmt.Errorf("dataset: K must be positive, got %d", s.K)
	case s.Dim <= 0:
		return fmt.Errorf("dataset: Dim must be positive, got %d", s.Dim)
	case s.N < s.K:
		return fmt.Errorf("dataset: N (%d) must be at least K (%d)", s.N, s.K)
	}
	if s.Weights != nil {
		if len(s.Weights) != s.K {
			return fmt.Errorf("dataset: %d weights for K=%d clusters", len(s.Weights), s.K)
		}
		for i, w := range s.Weights {
			if w <= 0 {
				return fmt.Errorf("dataset: weight %d is %g, must be positive", i, w)
			}
		}
	}
	return nil
}

// Dataset is a fully materialized synthetic mixture with ground truth.
type Dataset struct {
	Spec    Spec
	Points  []vec.Vector
	Labels  []int        // ground-truth cluster of each point
	Centers []vec.Vector // ground-truth cluster centers
}

// Generate materializes the dataset described by the spec.
func Generate(spec Spec) (*Dataset, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	centers := sampleCenters(rng, spec)

	points := make([]vec.Vector, spec.N)
	labels := make([]int, spec.N)
	assignCluster := clusterAssigner(spec)
	for i := 0; i < spec.N; i++ {
		c := assignCluster(i)
		p := make(vec.Vector, spec.Dim)
		for d := 0; d < spec.Dim; d++ {
			p[d] = centers[c][d] + rng.NormFloat64()*spec.StdDev
		}
		points[i] = p
		labels[i] = c
	}
	// Shuffle so splits don't align with clusters; mapper-side tests in
	// TestFewClusters assume splits sample all clusters.
	rng.Shuffle(spec.N, func(i, j int) {
		points[i], points[j] = points[j], points[i]
		labels[i], labels[j] = labels[j], labels[i]
	})
	return &Dataset{Spec: spec, Points: points, Labels: labels, Centers: centers}, nil
}

// clusterAssigner maps point index → cluster label. Equal weights use
// round-robin (near-equal cluster sizes, as in the paper's generator);
// explicit weights use largest-remainder apportionment so cluster sizes
// match the weights exactly up to rounding, deterministically.
func clusterAssigner(spec Spec) func(int) int {
	if spec.Weights == nil {
		return func(i int) int { return i % spec.K }
	}
	var total float64
	for _, w := range spec.Weights {
		total += w
	}
	// Integer shares by largest remainder.
	counts := make([]int, spec.K)
	type rem struct {
		c    int
		frac float64
	}
	rems := make([]rem, spec.K)
	assigned := 0
	for c, w := range spec.Weights {
		exact := float64(spec.N) * w / total
		counts[c] = int(exact)
		rems[c] = rem{c: c, frac: exact - float64(counts[c])}
		assigned += counts[c]
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].c < rems[b].c
	})
	for i := 0; assigned < spec.N; i, assigned = (i+1)%spec.K, assigned+1 {
		counts[rems[i].c]++
	}
	// Flatten into a lookup: points [0,counts[0]) → cluster 0, etc. The
	// generator shuffles afterwards, so contiguity doesn't leak into
	// splits.
	boundaries := make([]int, spec.K)
	acc := 0
	for c, n := range counts {
		acc += n
		boundaries[c] = acc
	}
	return func(i int) int {
		for c, b := range boundaries {
			if i < b {
				return c
			}
		}
		return spec.K - 1
	}
}

func sampleCenters(rng *rand.Rand, spec Spec) []vec.Vector {
	centers := make([]vec.Vector, 0, spec.K)
	minSep2 := spec.MinSeparation * spec.MinSeparation
	const maxTries = 10000
	for len(centers) < spec.K {
		tries := 0
		for {
			c := make(vec.Vector, spec.Dim)
			for d := range c {
				c[d] = rng.Float64() * spec.CenterRange
			}
			if spec.MinSeparation <= 0 || farEnough(c, centers, minSep2) || tries >= maxTries {
				centers = append(centers, c)
				break
			}
			tries++
		}
	}
	return centers
}

func farEnough(c vec.Vector, centers []vec.Vector, minSep2 float64) bool {
	for _, o := range centers {
		if vec.Dist2(c, o) < minSep2 {
			return false
		}
	}
	return true
}

// ValidatePoint rejects points with NaN or ±Inf coordinates. A single such
// coordinate poisons every centroid sum it enters, so ingestion paths check
// points once up front instead of letting the damage surface as garbage
// centers hours into a run.
func ValidatePoint(p vec.Vector) error {
	for i, x := range p {
		if math.IsNaN(x) {
			return fmt.Errorf("dataset: coordinate %d is NaN", i)
		}
		if math.IsInf(x, 0) {
			return fmt.Errorf("dataset: coordinate %d is %v", i, x)
		}
	}
	return nil
}

// Stream generates the mixture described by a Spec one point at a time,
// never materializing the dataset — the workload source for runs too large
// to hold in memory. Unlike Generate, which assigns clusters round-robin
// and shuffles afterwards, Stream draws each point's cluster at random
// (weighted when Spec.Weights is set), which interleaves clusters so every
// DFS split samples all of them — the property the mapper-side normality
// test relies on.
type Stream struct {
	spec    Spec
	rng     *rand.Rand
	centers []vec.Vector
	cum     []float64 // cumulative weights; nil = uniform
	total   float64
	emitted int
}

// NewStream validates the spec and prepares a deterministic point stream.
func NewStream(spec Spec) (*Stream, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	s := &Stream{spec: spec, rng: rng, centers: sampleCenters(rng, spec)}
	if spec.Weights != nil {
		s.cum = make([]float64, spec.K)
		for i, w := range spec.Weights {
			s.total += w
			s.cum[i] = s.total
		}
	}
	return s, nil
}

// Centers returns the ground-truth mixture centers.
func (s *Stream) Centers() []vec.Vector { return s.centers }

// Next returns the next point and its ground-truth cluster label, or
// ok=false once Spec.N points have been produced.
func (s *Stream) Next() (p vec.Vector, label int, ok bool) {
	if s.emitted >= s.spec.N {
		return nil, 0, false
	}
	s.emitted++
	c := 0
	if s.cum == nil {
		c = s.rng.Intn(s.spec.K)
	} else {
		x := s.rng.Float64() * s.total
		for c < len(s.cum)-1 && x >= s.cum[c] {
			c++
		}
	}
	p = make(vec.Vector, s.spec.Dim)
	for d := range p {
		p[d] = s.centers[c][d] + s.rng.NormFloat64()*s.spec.StdDev
	}
	return p, c, true
}

// FormatPoint encodes a point as the engine's text record: space-separated
// coordinates in Go's shortest round-trip float format.
func FormatPoint(p vec.Vector) string {
	return string(pointtext.AppendRecord(make([]byte, 0, len(p)*18), p))
}

// ParsePoint decodes a text record produced by FormatPoint, inferring the
// dimensionality from the record itself. It delegates to the shared
// pointtext tokenizer — the same one the dfs decoded-split cache uses — so
// the two can never diverge on record syntax.
func ParsePoint(line string) (vec.Vector, error) {
	out, err := pointtext.AppendPointAny(vec.Vector(nil), line)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return out, nil
}

// WriteToDFS stores the dataset's points (no labels: the algorithms are
// unsupervised) as a text file in the simulated DFS, through the same
// point writer the facade stages with: the file is FormatPoint per line,
// and its first scan serves the written points instead of parsing them.
func (d *Dataset) WriteToDFS(fs *dfs.FS, path string) {
	w := fs.PointWriter(path, d.Spec.Dim)
	for _, p := range d.Points {
		w.Append(p)
	}
	w.Close()
}
