package core

import (
	"time"

	"gmeansmr/internal/vec"
)

// activeCluster is one cluster still under test. Naming follows the paper:
// the *parent* is the cluster's center from the previous iteration (what
// TestClusters assigns points to), c1/c2 are the two candidate children
// being refined in the current iteration, and next1/next2 hold the
// principal-component children the last k-means pass placed for c1 and
// c2 — used only if the cluster fails the normality test and splits.
type activeCluster struct {
	parent vec.Vector
	c1, c2 vec.Vector
	// size1 and size2 are the point counts assigned to c1 and c2 at the
	// last k-means pass; their sum approximates the parent cluster size
	// that sets the test job's sampling rate.
	size1, size2 int64
	// next1 and next2 are the ≤2 candidate centers placed for c1 and c2.
	next1, next2 []vec.Vector
}

func (a *activeCluster) parentSize() int64 { return a.size1 + a.size2 }

// splitVector is v = c1 − c2, "the direction that k-means believes is
// important for clustering" (paper §2).
func (a *activeCluster) splitVector() vec.Vector { return vec.Sub(a.c1, a.c2) }

// IterationStats records one G-means round for reporting and for the
// paper's Figure 1 (evolution of centers across iterations).
type IterationStats struct {
	Iteration int
	// Strategy labels the round: StrategyReducer for a tested round,
	// StrategyCapped for one that hit MaxK.
	Strategy TestStrategy
	// ActiveBefore is the number of clusters under test this round.
	ActiveBefore int
	// SplitCount is how many of them failed the test and split.
	SplitCount int
	// FoundAfter is the cumulative number of final centers after the round.
	FoundAfter int
	// Centers snapshots every center alive at the end of the round (final
	// + candidate children), for plotting.
	Centers []vec.Vector
	// Duration is the wall time of this round alone — never a cumulative
	// total across rounds (the same per-round semantics multi-k-means
	// Progress reports).
	Duration time.Duration
	// Phases breaks Duration down by round phase: "kmeans" (the plain
	// refinement pass), "kfnc" (the last pass, which also places the
	// principal children: the paper's KMeansAndFindNewCenters step) and
	// "test" (the normality-test job). Always populated, even without a
	// trace recorder attached.
	Phases map[string]time.Duration
}

// TestOutcome reports one cluster's Anderson–Darling verdict to callers
// that want per-cluster diagnostics.
type TestOutcome struct {
	// A2Star is the corrected statistic of the cluster's sample.
	A2Star float64
	// N is the number of sampled projections the reducer tested: every
	// projection of a cluster of at most testSampleSize points, about
	// testSampleSize of a larger one.
	N int64
	// Normal is the combined verdict.
	Normal bool
	// Decided is false when no test produced enough samples to decide;
	// undecided clusters are accepted (fail-to-reject convention).
	Decided bool
}
