// Package core implements the paper's contribution: G-means on MapReduce
// (Algorithm 1 of the paper). The driver chains four jobs per iteration —
//
//	KMeans            refine the current candidate centers (two passes)
//	PCA candidates    place 2 next-round candidates per center along its
//	                  cluster's principal component (Hamerly & Elkan)
//	TestClusters      project each cluster on the vector joining its two
//	                  candidates and Anderson–Darling test the
//	                  projections (or TestFewClusters: test in the mapper
//	                  while k is small)
//
// — splitting every cluster whose projections fail the normality test and
// freezing it on its first accept, until every cluster looks Gaussian. The
// last k-means pass plus the candidate job is the step the paper fuses into
// KMeansAndFindNewCenters with random candidates; the principal-component
// children are the "additional MapReduce job" it mentions.
package core

import (
	"fmt"

	"gmeansmr/internal/kmeansmr"
)

// HeapBytesPerPoint is the reducer-memory model measured by the paper's
// first experiment (Figure 2): "Linear regression shows our reducer
// requires approximatively 64 Bytes (8 doubles) per point."
const HeapBytesPerPoint = 64

// DefaultMinTestSamples is the minimum projection-sample size for an
// Anderson–Darling decision in either test job. The paper: "a minimum size
// of 8 is considered to be sufficient. In our implementation we use a
// threshold of 20, to stay on the safe side."
const DefaultMinTestSamples = 20

// The paper's fixed choices for the G-means loop, which starts from one
// cluster.
const (
	// kmeansPasses is the number of refinement passes per G-means round,
	// including the last pass before candidate placement: "we found
	// experimentally that only two k-means iterations are sufficient".
	kmeansPasses = 2
	// minTestableSize marks clusters smaller than this as final without
	// testing: they cannot produce a reliable split decision.
	minTestableSize = 2 * DefaultMinTestSamples
)

// TestStrategy names which normality-test job an iteration used.
type TestStrategy string

// Strategies.
const (
	// StrategyFewClusters tests inside the mapper on split-local samples
	// (the paper's Algorithm 5), used while k is small.
	StrategyFewClusters TestStrategy = "TestFewClusters"
	// StrategyReducer tests inside the reducer on all projections of a
	// cluster (the paper's Algorithms 3–4).
	StrategyReducer TestStrategy = "TestClusters"
	// StrategyMerge labels the Progress event of the post-processing
	// merge round (MergeCloseCenters); it is not a normality test and
	// never appears in Result.PerIteration.
	StrategyMerge TestStrategy = "merge"
)

// Config parameterizes an MR G-means run.
type Config struct {
	kmeansmr.Env

	// Alpha is the Anderson–Darling significance level; smaller splits
	// less. Zero selects 0.0001, the strict level used by the original
	// G-means paper.
	Alpha float64
	// MaxIterations caps the G-means rounds; zero selects 30 (the paper
	// needed at most 13 on its workloads).
	MaxIterations int
	// MaxK stops splitting once this many centers exist (0 = unlimited).
	MaxK int
	// ForceStrategy, when non-empty, pins the test strategy instead of the
	// paper's hybrid switch rule. Used by ablation benchmarks.
	ForceStrategy TestStrategy
	// MergeRadius, when positive, enables the post-processing step the
	// paper leaves as future work: centers closer than this are merged
	// after the loop terminates.
	MergeRadius float64
	// Seed drives initial-center picking and the start vectors of the
	// candidate job's power iterations.
	Seed int64
	// Progress, when non-nil, is invoked after every G-means round with the
	// round's diagnostics and a snapshot of the run's cumulative counters.
	// It runs on the driver goroutine; keep it fast.
	Progress func(IterationStats, map[string]int64)
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = 0.0001
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 30
	}
	return c
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	if err := c.Env.Validate(); err != nil {
		return err
	}
	if c.Alpha < 0 || c.Alpha >= 1 {
		return fmt.Errorf("core: alpha must be in (0,1), got %g", c.Alpha)
	}
	return nil
}
