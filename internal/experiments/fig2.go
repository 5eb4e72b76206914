package experiments

import (
	"fmt"

	"gmeansmr/internal/core"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/mr"
)

// Fig2 revisits the paper's Figure 2: the reducer heap the TestClusters
// step needs as a function of the number of points a single reducer
// receives. The paper fits ≈64 bytes per point to the dataset sizes at
// which its reducers died with "Java heap space", and switches between
// its two normality-test jobs by that model.
//
// Here the test job ships a bounded, deterministic sample of each
// cluster's projections, so a reducer's input stops growing with n. The
// sweep runs one G-means round on single-cluster datasets, funnelling the
// cluster's whole sample into one reducer, and reports the projections
// that reach it against n, next to the heap the paper's model charges a
// reducer that receives every projection. The sizes are not scaled: the
// sweep has to cross the sample size to show the bound.
func Fig2(opts Options) error {
	opts = opts.withDefaults()
	fmt.Fprintf(opts.Out, "\n=== Figure 2: projections reaching the TestClusters reducer ===\n")

	var rows, csvRows [][]string
	var maxPer int64
	for _, n := range []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15} {
		spec := dataset.Spec{K: 1, Dim: 2, N: n, StdDev: 3, Seed: opts.Seed + int64(n)}
		env, _, err := buildEnv(spec, mr.DefaultCluster(), 0)
		if err != nil {
			return err
		}
		res, err := core.Run(core.Config{Env: env, Seed: opts.Seed, MaxIterations: 1})
		if err != nil {
			return err
		}
		counters := res.Counters.Snapshot()
		projections, tests := counters[core.CounterProjections], counters[core.CounterADTests]
		if tests != 1 {
			return fmt.Errorf("fig2: n=%d ran %d Anderson–Darling tests, want 1", n, tests)
		}
		maxPer = max(maxPer, projections)
		paperHeap := int64(n) * 64
		rows = append(rows, []string{fmtI(int64(n)), fmtI(projections), fmtI(paperHeap / 1024)})
		csvRows = append(csvRows, []string{fmtI(int64(n)), fmtI(projections), fmtI(paperHeap)})
	}
	fmt.Fprint(opts.Out, table([]string{"points in cluster", "projections to reducer", "paper model heap (KB)"}, rows))
	fmt.Fprintf(opts.Out, "\nThe reducer's input levels off: at most %d projections reach it, where\n", maxPer)
	fmt.Fprintf(opts.Out, "the paper's reducer held all n of them at ≈ 64 bytes per point.\n")
	return writeCSV(opts, "fig2_sample", []string{"points", "projections", "paper_heap_bytes"}, csvRows)
}
