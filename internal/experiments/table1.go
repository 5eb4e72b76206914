package experiments

import (
	"fmt"
	"time"

	"gmeansmr/internal/core"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
)

// table1Ks are the true cluster counts of the scaled d-series datasets
// (the paper uses 100–1600 on 10M points; the scaled suite halves the
// range and shrinks n, preserving the geometric progression that exposes
// linear-vs-quadratic growth).
var table1Ks = []int{16, 32, 64, 128}

// table1Row is one dataset's outcome.
type table1Row struct {
	KReal      int
	Discovered int
	Duration   time.Duration
	Iterations int
	Distances  int64
	// CovUpdates counts the last k-means pass's covariance work:
	// d(d+1)/2 scatter entries per point of an unfrozen cluster.
	CovUpdates int64
}

// runTable1 runs MR G-means on every d-series dataset.
func runTable1(opts Options) ([]table1Row, error) {
	rows := make([]table1Row, 0, len(table1Ks))
	for _, k := range table1Ks {
		spec := dataset.Spec{
			K: k, Dim: 10, N: opts.scaled(40_000),
			CenterRange: 100, StdDev: 1, MinSeparation: 8,
			Seed: opts.Seed + int64(k),
		}
		env, _, err := buildEnv(spec, mr.DefaultCluster(), 0)
		if err != nil {
			return nil, err
		}
		res, err := core.Run(core.Config{Env: env, Seed: opts.Seed + 100 + int64(k)})
		if err != nil {
			return nil, err
		}
		rows = append(rows, table1Row{
			KReal:      k,
			Discovered: res.K,
			Duration:   res.Duration,
			Iterations: res.Iterations,
			Distances:  res.Counters.Get(kmeansmr.CounterDistances),
			CovUpdates: res.Counters.Get(core.CounterCovUpdates),
		})
	}
	return rows, nil
}

// Table1 reproduces the paper's Table 1: "Results of G-means clustering" —
// per dataset the true k, the discovered k, the run time, and the number
// of iterations. The paper's headline observations to check against:
// discovered/real ≈ 1.5, iterations ≈ log₂k plus a small slack, and run
// time scaling linearly with k.
func Table1(opts Options) error {
	opts = opts.withDefaults()
	rows, err := runTable1(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(opts.Out, "\n=== Table 1: results of MR G-means clustering (d-series, R¹⁰) ===\n")
	var out [][]string
	var csvRows [][]string
	for _, r := range rows {
		ratio := float64(r.Discovered) / float64(r.KReal)
		out = append(out, []string{
			fmt.Sprintf("d%d", r.KReal),
			fmtI(int64(r.KReal)),
			fmtI(int64(r.Discovered)),
			fmtF(ratio, 2),
			fmtF(r.Duration.Seconds(), 2),
			fmtI(int64(r.Iterations)),
			fmtI(r.Distances),
			fmtI(r.CovUpdates),
		})
		csvRows = append(csvRows, []string{
			fmtI(int64(r.KReal)), fmtI(int64(r.Discovered)),
			fmtF(r.Duration.Seconds(), 4), fmtI(int64(r.Iterations)), fmtI(r.Distances), fmtI(r.CovUpdates)})
	}
	fmt.Fprint(opts.Out, table(
		[]string{"dataset", "clusters", "discovered", "ratio", "time (s)", "iterations", "distances", "cov updates"},
		out))
	fmt.Fprintf(opts.Out, "Paper: ratio ≈ 1.5 constant, iterations ≈ log₂k + slack, time linear in k.\n")
	return writeCSV(opts, "table1_gmeans",
		[]string{"k_real", "k_found", "seconds", "iterations", "distances", "cov_updates"}, csvRows)
}
