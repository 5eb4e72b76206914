package experiments

import (
	"fmt"

	"gmeansmr/internal/core"
	"gmeansmr/internal/dataset"
)

// Table4 reproduces the paper's Table 4 / Figure 5: the running time of MR
// G-means on the same dataset as the cluster grows from 4 to 8 to 12
// nodes. The paper clusters 100M points in 1000 clusters and observes
// near-linear speed-up (798 → 447 → 323 minutes).
//
// The simulated cluster bounds concurrent tasks by nodes × slots, so the
// speed-up here comes from genuine CPU parallelism over the map splits.
func Table4(opts Options) error {
	opts = opts.withDefaults()
	fmt.Fprintf(opts.Out, "\n=== Table 4 / Figure 5: node scaling of MR G-means ===\n")
	// Heavy enough that distance computation dominates task overhead: the
	// paper's scaling run uses 100M points in 1000 clusters; this keeps
	// the same points-per-cluster regime at 1/500 scale.
	spec := dataset.Spec{
		K: 100, Dim: 10, N: opts.scaled(200_000),
		CenterRange: 100, StdDev: 1, MinSeparation: 8,
		Seed: opts.Seed + 10,
	}
	nodeCounts := []int{4, 8, 12}
	// One fixed split size for every run: enough splits (≈96) to keep all
	// 24 slots of the 12-node cluster busy. Holding the data layout and
	// the seed constant makes the three runs execute the exact same
	// algorithm — the test job's sample depends on neither the node count
	// nor the schedule — so only the available parallelism changes, which
	// is what the paper's experiment isolates.
	splitSize := spec.N * spec.Dim * 18 / 96
	if splitSize < 4<<10 {
		splitSize = 4 << 10
	}
	var rows [][]string
	var csvRows [][]string
	var xs, ys []float64
	var base float64
	for _, nodes := range nodeCounts {
		cluster := paperCluster().WithNodes(nodes)
		env, _, err := buildEnv(spec, cluster, splitSize)
		if err != nil {
			return err
		}
		res, err := core.Run(core.Config{Env: env, Seed: opts.Seed + 11})
		if err != nil {
			return err
		}
		sec := res.Duration.Seconds()
		if base == 0 {
			base = sec
		}
		xs = append(xs, float64(nodes))
		ys = append(ys, sec)
		rows = append(rows, []string{
			fmt.Sprintf("T%d", nodes),
			fmtI(int64(nodes)),
			fmtF(sec, 2),
			fmtF(base/sec, 2) + "x",
			fmtI(int64(res.K)),
			fmtI(int64(res.Iterations)),
		})
		csvRows = append(csvRows, []string{fmtI(int64(nodes)), fmtF(sec, 4)})
	}
	fmt.Fprint(opts.Out, table(
		[]string{"run", "nodes", "time (s)", "speedup vs 4 nodes", "k found", "iterations"},
		rows))
	fmt.Fprint(opts.Out, asciiSeries("running time vs nodes", xs,
		map[string][]float64{"G-means": ys}, 60, 14))
	fmt.Fprintf(opts.Out, "Paper: 798/447/323 min on 4/8/12 nodes — time decreases roughly linearly\n")
	fmt.Fprintf(opts.Out, "with the number of nodes (1.79x at 8, 2.47x at 12).\n")
	return writeCSV(opts, "table4_scaling", []string{"nodes", "seconds"}, csvRows)
}
