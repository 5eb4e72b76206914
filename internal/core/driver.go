package core

import (
	"context"
	"fmt"
	"time"

	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/stats"
	"gmeansmr/internal/vec"
)

// Result is the outcome of an MR G-means run.
type Result struct {
	// Centers are the final cluster centers; K is len(Centers).
	Centers []vec.Vector
	K       int
	// KBeforeMerge is the center count before the optional merge
	// post-processing (equal to K when merging is disabled).
	KBeforeMerge int
	// Iterations is the number of G-means rounds executed.
	Iterations int
	// PerIteration holds per-round diagnostics and center snapshots
	// (paper Figure 1).
	PerIteration []IterationStats
	// Counters aggregates engine and application counters over every job
	// of the run (distance computations, AD tests, shuffle bytes, ...).
	Counters *mr.Counters
	Duration time.Duration
}

// Run executes MR G-means (paper Algorithm 1):
//
//	PickInitialCenters
//	while not ClusteringCompleted:
//	    KMeans                     (kmeansPasses − 1 passes)
//	    KMeansAndFindNewCenters    (the last pass, which also places two
//	                                principal children per center)
//	    TestClusters               (a bounded sample per cluster)
//
// Three jobs per round, as in the paper.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: ctx is checked at the top of every
// G-means round and plumbed into every MapReduce job, whose scheduler
// observes it before launching each task — a cancelled run aborts within
// one wave, returning an error wrapping ctx.Err().
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Env.Ctx == nil {
		cfg.Env.Ctx = ctx
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{Counters: mr.NewCounters()}
	trace := cfg.Env.Trace
	runSpan := trace.StartSpan("gmeans-run", "run")
	defer runSpan.End()

	initSpan := trace.StartSpan("init", "phase")
	active, err := pickInitialCenters(cfg)
	initSpan.End()
	if err != nil {
		return nil, err
	}
	var found []vec.Vector

	for round := 1; round <= cfg.MaxIterations && len(active) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		roundStart := time.Now()
		res.Iterations = round
		roundSpan := trace.StartSpan(fmt.Sprintf("round-%d", round), "phase")
		phases := make(map[string]time.Duration, 3)

		// --- KMeans: refine every live center (found + candidates). ---
		kmSpan := trace.StartSpan("kmeans", "round-phase")
		phaseStart := time.Now()
		centers := liveCenters(found, active)
		for pass := 1; pass < kmeansPasses; pass++ {
			itRes, err := kmeansmr.Iterate(cfg.Env, centers)
			if err != nil {
				kmSpan.End()
				roundSpan.End()
				return nil, err
			}
			itRes.Job.Counters.MergeInto(res.Counters)
			centers = itRes.Centers
		}
		phases["kmeans"] = time.Since(phaseStart)
		kmSpan.End()

		// --- KMeansAndFindNewCenters: last pass + principal children. ---
		kfncSpan := trace.StartSpan("kfnc", "round-phase")
		phaseStart = time.Now()
		kfnc, err := lastPass(cfg, centers, len(found), round, res.Counters)
		if err != nil {
			kfncSpan.End()
			roundSpan.End()
			return nil, err
		}
		phases["kfnc"] = time.Since(phaseStart)
		kfncSpan.End()
		writeBack(found, active, kfnc)
		found = kfnc.centers[:len(found)]

		// Pre-finalize clusters too small to test, drop empty ones.
		var testable []*activeCluster
		for _, a := range active {
			switch {
			case a.parentSize() == 0:
				// Other clusters absorbed every point: the cluster no
				// longer exists.
			case a.parentSize() < minTestableSize:
				found = append(found, a.parent)
			default:
				testable = append(testable, a)
			}
		}

		// Respect the MaxK cap: finalize everything still in flight.
		if cfg.MaxK > 0 && len(found)+2*len(testable) > cfg.MaxK {
			for _, a := range testable {
				found = append(found, a.parent)
			}
			res.PerIteration = append(res.PerIteration, IterationStats{
				Iteration:    round,
				Strategy:     StrategyCapped,
				ActiveBefore: len(testable),
				FoundAfter:   len(found),
				Centers:      vec.CloneAll(found),
				Duration:     time.Since(roundStart),
				Phases:       phases,
			})
			notifyProgress(cfg, res)
			roundSpan.SetArg("strategy", string(StrategyCapped)).End()
			active = nil
			break
		}

		// --- TestClusters. ---
		parents := make([]vec.Vector, 0, len(found)+len(testable))
		parents = append(parents, found...)
		vectors := make([]vec.Vector, len(testable))
		sizes := make([]int64, len(testable))
		for i, a := range testable {
			parents = append(parents, a.parent)
			vectors[i] = a.splitVector()
			sizes[i] = a.parentSize()
		}
		var outcomes []TestOutcome
		if len(testable) > 0 {
			testSpan := trace.StartSpan("test", "round-phase").SetArg("strategy", string(StrategyReducer))
			phaseStart = time.Now()
			var testRes *mr.Result
			outcomes, testRes, err = runTest(cfg, parents, len(found), vectors, sizes, round)
			if err != nil {
				testSpan.End()
				roundSpan.End()
				return nil, err
			}
			phases["test"] = time.Since(phaseStart)
			if trace.Enabled() {
				testSpan.SetArg("clusters", verdicts(cfg.Alpha, sizes, outcomes))
			}
			testSpan.End()
			testRes.Counters.MergeInto(res.Counters)
		}

		// --- Split or finalize. ---
		var next []*activeCluster
		splits := 0
		for i, a := range testable {
			if (outcomes[i].Normal || !outcomes[i].Decided) && !shortfall(outcomes[i], sizes[i]) {
				// Gaussian (or no evidence against it): "keep the original
				// center, and discard c1 and c2".
				found = append(found, a.parent)
				continue
			}
			splits++
			for _, child := range []struct {
				center vec.Vector
				size   int64
				cands  []vec.Vector
			}{
				{a.c1, a.size1, a.next1},
				{a.c2, a.size2, a.next2},
			} {
				switch {
				case child.size == 0:
					// Empty child: nothing to represent.
				case child.size < minTestableSize:
					// Too small to test: nothing to split.
					found = append(found, child.center)
				default:
					next = append(next, &activeCluster{parent: child.center,
						c1: child.cands[0], c2: child.cands[1]})
				}
			}
		}
		active = next

		// The round's bookkeeping — the center snapshot and the Progress
		// callback — stays inside the round span, so the run's phase spans
		// keep explaining its wall time.
		res.PerIteration = append(res.PerIteration, IterationStats{
			Iteration:    round,
			Strategy:     StrategyReducer,
			ActiveBefore: len(testable),
			SplitCount:   splits,
			FoundAfter:   len(found),
			Centers:      snapshotCenters(found, active),
			Duration:     time.Since(roundStart),
			Phases:       phases,
		})
		notifyProgress(cfg, res)
		roundSpan.SetArg("strategy", string(StrategyReducer)).
			SetArg("active", len(testable)).
			SetArg("splits", splits).
			SetArg("found", len(found)).
			End()
	}

	// Any clusters still active when MaxIterations ran out keep their
	// parent center.
	for _, a := range active {
		found = append(found, a.parent)
	}

	res.KBeforeMerge = len(found)
	if cfg.MergeRadius > 0 || cfg.MergeRadius == MergeAuto {
		mergeStart := time.Now()
		mergeSpan := trace.StartSpan("merge", "phase")
		found = MergeCenters(found, cfg.MergeRadius)
		// The merge is a round of its own to observers: one Progress event
		// with StrategyMerge, per-round Duration semantics, and the merged
		// center set. It is not appended to PerIteration — PerIteration
		// records normality-test rounds only.
		if cfg.Progress != nil {
			cfg.Progress(IterationStats{
				Iteration:  res.Iterations + 1,
				Strategy:   StrategyMerge,
				FoundAfter: len(found),
				Centers:    vec.CloneAll(found),
				Duration:   time.Since(mergeStart),
			}, res.Counters.Snapshot())
		}
		mergeSpan.SetArg("before", res.KBeforeMerge).SetArg("after", len(found)).End()
	}
	res.Centers = found
	res.K = len(found)
	res.Duration = time.Since(start)
	if res.K == 0 {
		return nil, fmt.Errorf("core: no clusters discovered (empty dataset?)")
	}
	return res, nil
}

// pickInitialCenters implements the paper's serial PickInitialCenters for
// its single starting cluster: it draws one pair of random points as the
// first candidate centers.
func pickInitialCenters(cfg Config) ([]*activeCluster, error) {
	sample, err := kmeansmr.SampleUpTo(cfg.Env, 2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	// A one-point dataset: pair the point with a clone of itself. The
	// candidate pair collapses onto the point, the split test keeps the
	// parent, and the run converges to the trivial clustering instead of
	// erroring out.
	if len(sample) == 1 {
		sample = append(sample, vec.Clone(sample[0]))
	}
	c1, c2 := sample[0], sample[1]
	mid := vec.Scale(vec.Add(c1, c2), 0.5)
	return []*activeCluster{{parent: mid, c1: c1, c2: c2}}, nil
}

// liveCenters builds the center array refined by the k-means jobs:
// found centers first, then the candidate pairs of each active cluster
// (c1_i at found+2i, c2_i at found+2i+1).
func liveCenters(found []vec.Vector, active []*activeCluster) []vec.Vector {
	out := make([]vec.Vector, 0, len(found)+2*len(active))
	out = append(out, found...)
	for _, a := range active {
		out = append(out, a.c1, a.c2)
	}
	return out
}

// kfncOutput is the outcome of a round's KMeansAndFindNewCenters step: the
// refined centers, their sizes and ≤2 candidate children per center.
type kfncOutput struct {
	centers    []vec.Vector
	sizes      []int64
	candidates [][]vec.Vector
}

// writeBack distributes the refined centers, sizes and candidate children
// of the KFNC step back onto the found slice and the active clusters.
func writeBack(found []vec.Vector, active []*activeCluster, kfnc *kfncOutput) {
	f := len(found)
	for i, a := range active {
		a.c1 = kfnc.centers[f+2*i]
		a.c2 = kfnc.centers[f+2*i+1]
		a.size1 = kfnc.sizes[f+2*i]
		a.size2 = kfnc.sizes[f+2*i+1]
		a.next1 = kfnc.candidates[f+2*i]
		a.next2 = kfnc.candidates[f+2*i+1]
	}
}

// testVerdict is one cluster's normality verdict as the test phase's span
// records it: the cluster's size n, the sample the reducer tested, the
// corrected statistic, the critical value it was compared against, and
// the verdict. Shortfall marks a cluster whose sample fell short of what
// its size promises: it splits even when Normal is true.
type testVerdict struct {
	N         int64   `json:"n"`
	Sample    int64   `json:"sample"`
	A2Star    float64 `json:"a2star"`
	Critical  float64 `json:"critical"`
	Normal    bool    `json:"normal"`
	Shortfall bool    `json:"shortfall"`
}

// verdicts builds the test span's per-cluster records, one per cluster
// under test.
func verdicts(alpha float64, sizes []int64, outcomes []TestOutcome) []testVerdict {
	critical := stats.CriticalValue(alpha)
	out := make([]testVerdict, len(outcomes))
	for i, o := range outcomes {
		out[i] = testVerdict{N: sizes[i], Sample: o.N, A2Star: o.A2Star, Critical: critical,
			Normal: o.Normal || !o.Decided, Shortfall: shortfall(o, sizes[i])}
	}
	return out
}

// minSampleShare is the share of its expected sample, min(size,
// testSampleSize), below which a cluster's test is not taken as evidence
// that the cluster is one Gaussian.
const minSampleShare = 0.8

// shortfall reports whether the test of a cluster of size points (the
// points nearest its two children in the last pass) saw fewer than
// minSampleShare of the projections it should have. The test samples the
// parent's members, so a large shortfall means the children hold points
// the parent's test never saw — a neighbouring true cluster one child took
// over. Accepting the parent would discard that child, and a frozen
// neighbour would absorb the orphaned cluster; the cluster splits instead.
func shortfall(o TestOutcome, size int64) bool {
	return float64(o.N) < minSampleShare*float64(min(size, testSampleSize))
}

func snapshotCenters(found []vec.Vector, active []*activeCluster) []vec.Vector {
	return vec.CloneAll(liveCenters(found, active))
}

// notifyProgress reports the just-appended round to the configured observer.
func notifyProgress(cfg Config, res *Result) {
	if cfg.Progress == nil {
		return
	}
	cfg.Progress(res.PerIteration[len(res.PerIteration)-1], res.Counters.Snapshot())
}
