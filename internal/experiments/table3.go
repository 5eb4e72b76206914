package experiments

import (
	"fmt"

	"gmeansmr/internal/core"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/mr"
)

// Table3 reproduces the paper's Table 3: clustering quality of G-means vs
// multi-k-means, measured as the average distance between points and their
// centers. The paper finds G-means wins by ≈10% because it adds centers
// progressively where needed, avoiding the local minima multi-k-means
// falls into from random seeding.
//
// Methodology (as in the paper): G-means runs to completion, discovering
// its own k; multi-k-means then runs 10 iterations "for the same value of
// k" (the number of centers G-means placed) and both report mean
// point-center distance. The dataset geometry uses a moderate center
// range so clusters are distinct but a misplaced center is not
// catastrophically far from the points it strands — the paper's
// quality-gap regime (its d-series averages sit just above σ√10 ≈ 3.16,
// i.e. mild overlap).
func Table3(opts Options) error {
	opts = opts.withDefaults()
	fmt.Fprintf(opts.Out, "\n=== Table 3: clustering quality — G-means vs multi-k-means ===\n")
	ks := []int{16, 32, 64}
	var rows [][]string
	var csvRows [][]string
	for _, k := range ks {
		spec := dataset.Spec{
			K: k, Dim: 10, N: opts.scaled(30_000),
			CenterRange: 100, StdDev: 1, MinSeparation: 8,
			Seed: opts.Seed + int64(k)*3,
		}
		env, ds, err := buildEnv(spec, mr.DefaultCluster(), 0)
		if err != nil {
			return err
		}
		gres, err := core.Run(core.Config{Env: env, Seed: opts.Seed + 5})
		if err != nil {
			return err
		}
		gAssign := lloyd.Assign(ds.Points, gres.Centers)
		gDist := lloyd.AverageDistance(ds.Points, gres.Centers, gAssign)

		// Average multi-k-means over three seedings: one unlucky random
		// start swings the quality of a single run wildly (that volatility
		// is itself the paper's point), while the mean exposes the
		// systematic gap.
		// Two baselines bracket the paper's ≈10% gap: the paper's own
		// random seeding (where the coupon-collector effect strands whole
		// clusters — the local-minimum mechanism, amplified by our
		// well-separated scaled geometry) and k-means++ seeding (the
		// production initializer the paper prescribes, which nearly
		// eliminates the gap). Each is averaged over three seedings.
		randDist, err := multiAvgDist(opts, env, gres.K, kmeansmr.MultiSeedRandom)
		if err != nil {
			return err
		}
		ppDist, err := multiAvgDist(opts, env, gres.K, kmeansmr.MultiSeedPlusPlus)
		if err != nil {
			return err
		}

		rows = append(rows, []string{
			fmt.Sprintf("d%d", k), fmtI(int64(k)), fmtI(int64(gres.K)),
			fmtF(gDist, 3),
			fmtF(randDist, 3), fmtF((randDist/gDist-1)*100, 1) + "%",
			fmtF(ppDist, 3), fmtF((ppDist/gDist-1)*100, 1) + "%",
		})
		csvRows = append(csvRows, []string{
			fmtI(int64(k)), fmtI(int64(gres.K)), fmtF(gDist, 5),
			fmtF(randDist, 5), fmtF(ppDist, 5)})
	}
	fmt.Fprint(opts.Out, table(
		[]string{"dataset", "k_real", "k_found", "G-means",
			"multi-k (rand)", "Δ", "multi-k (++)", "Δ"},
		rows))
	fmt.Fprintf(opts.Out, "Paper: G-means ≈ 10%% better (3.34 vs 3.71 on d100, etc.); k_found/k_real ≈ 1.5.\n")
	fmt.Fprintf(opts.Out, "The two baselines bracket that: random seeding (the paper's implementation)\n")
	fmt.Fprintf(opts.Out, "loses big through local minima — the paper's mechanism, amplified by the\n")
	fmt.Fprintf(opts.Out, "well-separated scaled geometry the AD test needs at 3·10⁴ points — while a\n")
	fmt.Fprintf(opts.Out, "k-means++-seeded production baseline closes the gap. G-means needs neither\n")
	fmt.Fprintf(opts.Out, "restarts nor a seeding job to sit at the good end of that bracket.\n")
	return writeCSV(opts, "table3_quality",
		[]string{"k_real", "k_found", "gmeans_avg_dist", "multik_random_avg_dist", "multik_pp_avg_dist"}, csvRows)
}

// multiAvgDist runs multi-k-means at exactly k centers with the given
// seeding, three times, and returns the mean average point-center distance.
func multiAvgDist(opts Options, env kmeansmr.Env, k int, seeding kmeansmr.MultiSeeding) (float64, error) {
	var sum float64
	const runs = 3
	for r := int64(0); r < runs; r++ {
		mcfg := kmeansmr.MultiConfig{Env: env, KMin: k, KMax: k,
			Iterations: 10, Seeding: seeding, Seed: opts.Seed + 6 + r*101}
		mres, err := kmeansmr.RunMulti(mcfg)
		if err != nil {
			return 0, err
		}
		if err := kmeansmr.Evaluate(mcfg, mres); err != nil {
			return 0, err
		}
		sum += mres.AvgDistByK[k]
	}
	return sum / runs, nil
}
