package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"gmeansmr/internal/core"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
)

// The scaling suite turns the paper's shape claims into a machine-checkable
// artifact: each series sweeps one variable (k, n, nodes), measures a
// deterministic cost (distance computations; wall time only for the node
// series), fits a log-log power law, and records the fitted exponent with
// the band it must stay inside. CI regenerates SCALING.json every push and
// cmd/benchdiff -scaling fails the build when a gated exponent leaves its
// band or drifts across pushes — gating the *shape* of the cost curves, not
// a single benchmark's ns/op.

// ScalingSeries is one fitted cost curve.
type ScalingSeries struct {
	Name string `json:"name"`
	// Unit names the y axis (distance computations, seconds).
	Unit string    `json:"unit"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
	// Exponent is the least-squares slope of ln y over ln x; R2 its fit
	// quality on the log-log points.
	Exponent float64 `json:"exponent"`
	R2       float64 `json:"r2"`
	// Gated series fail cmd/benchdiff -scaling when Exponent leaves
	// [MinExponent, MaxExponent]. Ungated series (wall-time ones — too
	// noisy for hosted CI runners) are recorded for trend only.
	Gated       bool    `json:"gated"`
	MinExponent float64 `json:"min_exponent"`
	MaxExponent float64 `json:"max_exponent"`
}

// ScalingReport is the SCALING.json artifact.
type ScalingReport struct {
	Scale  float64         `json:"scale"`
	Seed   int64           `json:"seed"`
	Series []ScalingSeries `json:"series"`
}

// scalingKs sweeps true k for the cost-vs-k series.
var scalingKs = []int{4, 8, 16, 32}

// scalingNs sweeps the point count for the cost-vs-n series (pre-scale).
var scalingNs = []int{5_000, 10_000, 20_000, 40_000}

// scalingNodes sweeps the simulated cluster width for the time-vs-nodes
// series.
var scalingNodes = []int{1, 2, 4, 8}

// RunScaling measures every series and returns the fitted report.
func RunScaling(opts Options) (*ScalingReport, error) {
	opts = opts.withDefaults()
	report := &ScalingReport{Scale: opts.Scale, Seed: opts.Seed}

	// G-means cost vs k: the paper's headline claim — one G-means pass
	// refines every cluster in the same MR round, so cost grows ~linearly
	// in k where the multi-k baseline grows quadratically.
	{
		s := ScalingSeries{Name: "gmeans-cost-vs-k", Unit: "distance computations",
			Gated: true, MinExponent: 0.8, MaxExponent: 1.3}
		for _, k := range scalingKs {
			spec := dataset.Spec{K: k, Dim: 8, N: opts.scaled(20_000),
				CenterRange: 100, StdDev: 1, MinSeparation: 8, Seed: opts.Seed + int64(k)}
			env, _, err := buildEnv(spec, mr.DefaultCluster(), 0)
			if err != nil {
				return nil, err
			}
			res, err := core.Run(core.Config{Env: env, Seed: opts.Seed + 100 + int64(k)})
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(k))
			s.Y = append(s.Y, float64(res.Counters.Get(kmeansmr.CounterDistances)))
		}
		s.Exponent, s.R2 = fitPowerLaw(s.X, s.Y)
		report.Series = append(report.Series, s)
	}

	// G-means cost vs n at fixed k: every pass reads the whole dataset, so
	// cost is ~linear in n.
	{
		s := ScalingSeries{Name: "gmeans-cost-vs-n", Unit: "distance computations",
			Gated: true, MinExponent: 0.8, MaxExponent: 1.25}
		for _, n := range scalingNs {
			spec := dataset.Spec{K: 8, Dim: 8, N: opts.scaled(n),
				CenterRange: 100, StdDev: 1, MinSeparation: 8, Seed: opts.Seed + int64(n)}
			env, _, err := buildEnv(spec, mr.DefaultCluster(), 0)
			if err != nil {
				return nil, err
			}
			res, err := core.Run(core.Config{Env: env, Seed: opts.Seed + 200 + int64(n)})
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(opts.scaled(n)))
			s.Y = append(s.Y, float64(res.Counters.Get(kmeansmr.CounterDistances)))
		}
		s.Exponent, s.R2 = fitPowerLaw(s.X, s.Y)
		report.Series = append(report.Series, s)
	}

	// Multi-k-means cost vs k ceiling: sweeping k=1..kmax costs Σk ≈ k²/2
	// distances per pass — the quadratic growth the paper's comparison
	// hinges on. Over k=4..32 the finite-sum log-log slope sits near 1.9.
	{
		s := ScalingSeries{Name: "multik-cost-vs-k", Unit: "distance computations",
			Gated: true, MinExponent: 1.6, MaxExponent: 2.3}
		for _, kmax := range scalingKs {
			spec := dataset.Spec{K: 8, Dim: 8, N: opts.scaled(8_000),
				CenterRange: 100, StdDev: 1, MinSeparation: 8, Seed: opts.Seed + 17}
			env, _, err := buildEnv(spec, mr.DefaultCluster(), 0)
			if err != nil {
				return nil, err
			}
			cfg := kmeansmr.MultiConfig{Env: env, KMin: 1, KMax: kmax, Iterations: 3,
				Seeding: kmeansmr.MultiSeedPlusPlus, Seed: opts.Seed + 300 + int64(kmax)}
			res, err := kmeansmr.RunMulti(cfg)
			if err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(kmax))
			s.Y = append(s.Y, float64(res.Counters.Get(kmeansmr.CounterDistances)))
		}
		s.Exponent, s.R2 = fitPowerLaw(s.X, s.Y)
		report.Series = append(report.Series, s)
	}

	// G-means wall time vs nodes: the speedup curve. Wall time on shared
	// hardware is noisy, so this series is recorded but never gated; the
	// exponent should sit below 0 (more nodes, less time) on quiet machines.
	{
		s := ScalingSeries{Name: "gmeans-time-vs-nodes", Unit: "seconds"}
		for _, nodes := range scalingNodes {
			spec := dataset.Spec{K: 8, Dim: 8, N: opts.scaled(40_000),
				CenterRange: 100, StdDev: 1, MinSeparation: 8, Seed: opts.Seed + 29}
			cluster := mr.DefaultCluster()
			cluster.Nodes = nodes
			env, _, err := buildEnv(spec, cluster, 0)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := core.Run(core.Config{Env: env, Seed: opts.Seed + 400}); err != nil {
				return nil, err
			}
			s.X = append(s.X, float64(nodes))
			s.Y = append(s.Y, time.Since(start).Seconds())
		}
		s.Exponent, s.R2 = fitPowerLaw(s.X, s.Y)
		report.Series = append(report.Series, s)
	}

	return report, nil
}

// Scaling is the registry runner: print the fitted table and, when
// Options.ScalingJSON is set, write the SCALING.json artifact.
func Scaling(opts Options) error {
	opts = opts.withDefaults()
	report, err := RunScaling(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(opts.Out, "\n=== Scaling curves: fitted log-log exponents ===\n")
	var rows [][]string
	var csvRows [][]string
	for _, s := range report.Series {
		band := "(trend only)"
		if s.Gated {
			band = fmt.Sprintf("[%.2f, %.2f]", s.MinExponent, s.MaxExponent)
		}
		rows = append(rows, []string{s.Name, fmtF(s.Exponent, 3), fmtF(s.R2, 4), band, s.Unit})
		for i := range s.X {
			csvRows = append(csvRows, []string{s.Name, fmtF(s.X[i], 0), fmtF(s.Y[i], 4)})
		}
	}
	fmt.Fprint(opts.Out, table([]string{"series", "exponent", "r2", "gate band", "unit"}, rows))
	fmt.Fprintf(opts.Out, "Paper: G-means cost linear in k and n; multi-k-means quadratic in k.\n")
	if opts.ScalingJSON != "" {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opts.ScalingJSON, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(opts.Out, "wrote %s\n", opts.ScalingJSON)
	}
	return writeCSV(opts, "scaling_curves", []string{"series", "x", "y"}, csvRows)
}

// fitPowerLaw fits y = c·x^e by least squares on (ln x, ln y) and returns
// the exponent e with the fit's R². Points with non-positive x or y are
// meaningless in log space and yield NaN.
func fitPowerLaw(x, y []float64) (exponent, r2 float64) {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN(), math.NaN()
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			return math.NaN(), math.NaN()
		}
		lx, ly := math.Log(x[i]), math.Log(y[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		syy += ly * ly
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return math.NaN(), math.NaN()
	}
	exponent = (n*sxy - sx*sy) / den
	// R² on the log-log points.
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return exponent, 1
	}
	intercept := (sy - exponent*sx) / n
	ssRes := 0.0
	for i := range x {
		resid := math.Log(y[i]) - (intercept + exponent*math.Log(x[i]))
		ssRes += resid * resid
	}
	return exponent, 1 - ssRes/ssTot
}
