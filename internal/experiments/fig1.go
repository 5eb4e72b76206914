package experiments

import (
	"fmt"

	"gmeansmr/internal/core"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/mr"
)

// Fig1 reproduces the paper's Figure 1: "Evolution of centers positioned
// by G-means in a dataset containing 10 clusters in R²". It runs MR
// G-means on a 10-cluster 2-D mixture and renders the center set after
// each of the first iterations.
func Fig1(opts Options) error {
	opts = opts.withDefaults()
	spec := dataset.Spec{
		K: 10, Dim: 2, N: opts.scaled(10_000),
		CenterRange: 100, StdDev: 2, MinSeparation: 18,
		Seed: opts.Seed + 1,
	}
	env, ds, err := buildEnv(spec, mr.DefaultCluster(), 0)
	if err != nil {
		return err
	}
	res, err := core.Run(core.Config{Env: env, Seed: opts.Seed + 2})
	if err != nil {
		return err
	}

	fmt.Fprintf(opts.Out, "\n=== Figure 1: evolution of G-means centers (10 clusters in R²) ===\n")
	fmt.Fprintf(opts.Out, "n=%d true-k=%d discovered-k=%d iterations=%d\n\n",
		spec.N, spec.K, res.K, res.Iterations)

	var csvRows [][]string
	shown := 3
	if len(res.PerIteration) < shown {
		shown = len(res.PerIteration)
	}
	for _, it := range res.PerIteration {
		for _, c := range it.Centers {
			csvRows = append(csvRows, []string{
				fmt.Sprintf("%d", it.Iteration), fmtF(c[0], 4), fmtF(c[1], 4)})
		}
		if it.Iteration <= shown {
			fmt.Fprintf(opts.Out, "Iteration %d (%d centers, strategy %s):\n",
				it.Iteration, len(it.Centers), it.Strategy)
			fmt.Fprint(opts.Out, asciiScatter(ds.Points, it.Centers, 72, 20, 1200))
		}
	}
	fmt.Fprintf(opts.Out, "Final (%d centers):\n", res.K)
	fmt.Fprint(opts.Out, asciiScatter(ds.Points, res.Centers, 72, 20, 1200))

	return writeCSV(opts, "fig1_centers", []string{"iteration", "x", "y"}, csvRows)
}
