package experiments

import (
	"fmt"

	"gmeansmr/internal/core"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/mr"
)

// Fig4 reproduces the paper's Figure 4: on a 10-cluster 2-D dataset,
// G-means discovers ~14 centers but covers every true cluster, while
// multi-k-means with the *correct* k=10 falls into a local minimum,
// placing two centers in one cluster and leaving another under-served —
// producing a visibly worse clustering and a larger average distance.
func Fig4(opts Options) error {
	opts = opts.withDefaults()
	spec := dataset.Spec{
		K: 10, Dim: 2, N: opts.scaled(10_000),
		CenterRange: 100, StdDev: 2, MinSeparation: 18,
		Seed: opts.Seed + 4,
	}
	env, ds, err := buildEnv(spec, mr.DefaultCluster(), 0)
	if err != nil {
		return err
	}
	gres, err := core.Run(core.Config{Env: env, Seed: opts.Seed + 8})
	if err != nil {
		return err
	}
	gAssign := lloyd.Assign(ds.Points, gres.Centers)
	gDist := lloyd.AverageDistance(ds.Points, gres.Centers, gAssign)

	mcfg := kmeansmr.MultiConfig{Env: env, KMin: 10, KMax: 10, Iterations: 10, Seed: opts.Seed + 9}
	mres, err := kmeansmr.RunMulti(mcfg)
	if err != nil {
		return err
	}
	if err := kmeansmr.Evaluate(mcfg, mres); err != nil {
		return err
	}
	mCenters := mres.CentersByK[10]
	mDist := mres.AvgDistByK[10]

	// Count true clusters covered (a center within 3σ of the true center).
	gCovered := coverage(ds, gres.Centers)
	mCovered := coverage(ds, mCenters)

	fmt.Fprintf(opts.Out, "\n=== Figure 4: G-means vs multi-k-means on 10 clusters in R² ===\n\n")
	fmt.Fprintf(opts.Out, "%d centers found by G-means (avg dist %.3f, %d/10 true clusters covered):\n",
		gres.K, gDist, gCovered)
	fmt.Fprint(opts.Out, asciiScatter(ds.Points, gres.Centers, 72, 20, 1200))
	fmt.Fprintf(opts.Out, "\n%d centers found by multi-k-means (avg dist %.3f, %d/10 true clusters covered):\n",
		len(mCenters), mDist, mCovered)
	fmt.Fprint(opts.Out, asciiScatter(ds.Points, mCenters, 72, 20, 1200))
	fmt.Fprintf(opts.Out, "Paper: G-means finds 14 centers but detects all clusters; multi-k-means with\n")
	fmt.Fprintf(opts.Out, "k=10 puts two centers in one cluster (local minimum) and misses another.\n")

	var csvRows [][]string
	for _, c := range gres.Centers {
		csvRows = append(csvRows, []string{"gmeans", fmtF(c[0], 4), fmtF(c[1], 4)})
	}
	for _, c := range mCenters {
		csvRows = append(csvRows, []string{"multikmeans", fmtF(c[0], 4), fmtF(c[1], 4)})
	}
	return writeCSV(opts, "fig4_centers", []string{"algorithm", "x", "y"}, csvRows)
}

// coverage counts how many true cluster centers have a discovered center
// within 3 standard deviations.
func coverage(ds *dataset.Dataset, centers [][]float64) int {
	n := 0
	limit := 3 * ds.Spec.StdDev
	for _, truth := range ds.Centers {
		for _, c := range centers {
			if dist2(truth, c) <= limit*limit {
				n++
				break
			}
		}
	}
	return n
}

func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
