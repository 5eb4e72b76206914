// Package core implements the paper's contribution: G-means on MapReduce
// (Algorithm 1 of the paper). The driver chains three jobs per iteration —
//
//	KMeans                   refine the current candidate centers
//	KMeansAndFindNewCenters  the last refinement pass, which also places
//	                         2 next-round candidates per center along its
//	                         cluster's principal component (Hamerly & Elkan)
//	TestClusters             project each cluster on the vector joining its
//	                         two candidates and Anderson–Darling test a
//	                         bounded, deterministic sample of the
//	                         projections in the reducer
//
// — splitting every cluster whose projections fail the normality test and
// freezing it on its first accept, until every cluster looks Gaussian. The
// paper picks the candidates at random in KMeansAndFindNewCenters; the
// principal-component children need each cluster's scatter, which the
// same pass gathers, so they cost no extra dataset read.
//
// The paper chooses between two test jobs: TestFewClusters (Algorithm 5)
// tests split-local samples in the mappers while k is small, and
// TestClusters (Algorithms 3–4) tests all of a cluster's projections in
// one reducer, heap permitting. This package runs one job instead: the
// reducer-side test on about testSampleSize projections per cluster. The
// mapper-side verdict depends on the split size (small splits freeze the
// whole mixture in round 1), and the sample bounds the reducer's memory,
// the only reason for the switch.
package core

import (
	"fmt"

	"gmeansmr/internal/kmeansmr"
)

// DefaultMinTestSamples is the minimum projection-sample size for an
// Anderson–Darling decision. The paper: "a minimum size of 8 is considered
// to be sufficient. In our implementation we use a threshold of 20, to stay
// on the safe side."
const DefaultMinTestSamples = 20

// The paper's fixed choices for the G-means loop, which starts from one
// cluster.
const (
	// kmeansPasses is the number of refinement passes per G-means round,
	// including the last pass, which also places the candidates: "we found
	// experimentally that only two k-means iterations are sufficient".
	kmeansPasses = 2
	// minTestableSize marks clusters smaller than this as final without
	// testing: they cannot produce a reliable split decision.
	minTestableSize = 2 * DefaultMinTestSamples
	// testSampleSize is the expected number of projections the test job
	// ships to the reducer of a cluster; smaller clusters ship every
	// projection. It bounds the reducer's memory and keeps the test from
	// rejecting tiny deviations from normality at large n, the
	// over-splitting Hamerly & Elkan warn about.
	testSampleSize = 4096
)

// TestStrategy labels what a round did with its clusters under test.
type TestStrategy string

// Strategies.
const (
	// StrategyReducer tests inside the reducer on a sample of each
	// cluster's projections (the paper's Algorithms 3–4).
	StrategyReducer TestStrategy = "TestClusters"
	// StrategyCapped labels a round that finalized every cluster under
	// test without testing it, because splitting would pass MaxK.
	StrategyCapped TestStrategy = "capped"
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
	// MergeRadius, when positive or MergeAuto, enables the post-processing
	// step the paper leaves as future work: centers closer than this are
	// merged after the loop terminates (MergeCenters).
	MergeRadius float64
	// Seed drives initial-center picking, the start vectors of the last
	// k-means pass's power iterations and the test job's sample.
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
	if !(c.Alpha >= 0 && c.Alpha < 1) { // NaN fails both comparisons
		return fmt.Errorf("core: alpha must be in (0,1), got %g", c.Alpha)
	}
	return nil
}
