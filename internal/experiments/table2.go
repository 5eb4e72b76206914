package experiments

import (
	"fmt"
	"time"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
)

// table2Ks are the k_max values of the scaled multi-k-means runs (the
// paper uses 50–400).
var table2Ks = []int{16, 32, 64, 128}

// table2Row is one multi-k-means measurement.
type table2Row struct {
	KMax         int
	AvgIteration time.Duration
	Distances    int64
}

// runTable2 measures the average single-iteration time of multi-k-means
// when testing all k in [1, kmax].
func runTable2(opts Options) ([]table2Row, error) {
	rows := make([]table2Row, 0, len(table2Ks))
	for _, k := range table2Ks {
		spec := dataset.Spec{
			K: k, Dim: 10, N: opts.scaled(40_000),
			CenterRange: 100, StdDev: 1, MinSeparation: 8,
			Seed: opts.Seed + int64(k),
		}
		env, _, err := buildEnv(spec, mr.DefaultCluster(), 0)
		if err != nil {
			return nil, err
		}
		// 3 iterations are enough to measure the per-iteration cost the
		// paper's Table 2 reports (its quality runs use 10).
		res, err := kmeansmr.RunMulti(kmeansmr.MultiConfig{
			Env: env, KMin: 1, KMax: k, Iterations: 3, Seed: opts.Seed + 7,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, table2Row{
			KMax:         k,
			AvgIteration: res.AvgIterationTime(),
			Distances:    res.Counters.Get(kmeansmr.CounterDistances) / int64(len(res.IterationTimes)),
		})
	}
	return rows, nil
}

// Table2 reproduces the paper's Table 2: "Average time of a single
// iteration of multi-k-means". The paper's observation: the per-iteration
// cost blows up superlinearly (O(n·k²) distance computations).
func Table2(opts Options) error {
	opts = opts.withDefaults()
	rows, err := runTable2(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(opts.Out, "\n=== Table 2: average single-iteration time of multi-k-means ===\n")
	var out [][]string
	var csvRows [][]string
	for i, r := range rows {
		growth := "-"
		if i > 0 {
			growth = fmtF(float64(r.AvgIteration)/float64(rows[i-1].AvgIteration), 2) + "x"
		}
		out = append(out, []string{
			fmt.Sprintf("d%d", r.KMax),
			fmtI(int64(r.KMax)),
			fmtF(r.AvgIteration.Seconds(), 3),
			growth,
			fmtI(r.Distances),
		})
		csvRows = append(csvRows, []string{
			fmtI(int64(r.KMax)), fmtF(r.AvgIteration.Seconds(), 5), fmtI(r.Distances)})
	}
	fmt.Fprint(opts.Out, table(
		[]string{"dataset", "clusters", "time/iteration (s)", "growth", "distances/iteration"},
		out))
	fmt.Fprintf(opts.Out, "Paper: per-iteration time grows superlinearly; distances/iteration = n·k(k+1)/2.\n")
	return writeCSV(opts, "table2_multikmeans",
		[]string{"k_max", "seconds_per_iteration", "distances_per_iteration"}, csvRows)
}
