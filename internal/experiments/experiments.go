// Package experiments reproduces every table and figure of the paper's
// evaluation (§5) on scaled-down versions of its synthetic workloads. Each
// experiment is a Runner that prints the same rows/series the paper
// reports and can optionally dump CSV files for plotting.
//
// Scaling: the paper used 10M–100M points on a physical Hadoop cluster;
// the defaults here use 10⁴–10⁵ points on the simulated engine so the full
// suite completes in minutes. The *shapes* the paper reports (linear vs
// quadratic growth in k, the ≈1.5× over-estimation, the ≈10% WCSS win, the
// node-scaling curve, the bounded reducer input of Figure 2) are
// size-independent; EXPERIMENTS.md records paper-vs-measured numbers side
// by side.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
)

// Options control an experiment run.
type Options struct {
	// Out receives the human-readable report; nil selects os.Stdout.
	Out io.Writer
	// CSVDir, when non-empty, receives one CSV file per experiment.
	CSVDir string
	// Scale multiplies the default workload sizes (points); 0 selects 1.0.
	// Benchmarks use small scales; the CLI uses 1.0.
	Scale float64
	// Seed drives dataset generation and algorithm seeding.
	Seed int64
	// ScalingJSON, when non-empty, is the path the scaling experiment
	// writes its machine-readable report (SCALING.json) to.
	ScalingJSON string
}

func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = os.Stdout
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	return o
}

func (o Options) scaled(n int) int {
	s := int(float64(n) * o.Scale)
	if s < 100 {
		s = 100
	}
	return s
}

// Runner executes one experiment and writes its report.
type Runner func(Options) error

// Registry maps experiment ids (fig1, table1, ...) to runners.
var Registry = map[string]Runner{
	"fig1":    Fig1,
	"fig2":    Fig2,
	"table1":  Table1,
	"table2":  Table2,
	"fig3":    Fig3,
	"table3":  Table3,
	"fig4":    Fig4,
	"table4":  Table4,
	"scaling": Scaling,
}

// Names returns the registry keys in canonical paper order (the scaling
// suite, which is ours rather than the paper's, runs last).
func Names() []string {
	return []string{"fig1", "fig2", "table1", "table2", "fig3", "table3", "fig4", "table4", "scaling"}
}

// RunAll executes every experiment in paper order.
func RunAll(opts Options) error {
	for _, name := range Names() {
		if err := Registry[name](opts); err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
	}
	return nil
}

// paperCluster is the simulated counterpart of the paper's 4-node testbed.
func paperCluster() mr.Cluster {
	return mr.Cluster{
		Nodes:              4,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 2,
		TaskHeapBytes:      256 << 20,
		MaxHeapUsage:       0.66,
	}
}

// buildEnv materializes a mixture dataset into a fresh DFS and returns the
// job environment. splitSize of 0 selects ~32 map splits for the dataset.
func buildEnv(spec dataset.Spec, cluster mr.Cluster, splitSize int) (kmeansmr.Env, *dataset.Dataset, error) {
	ds, err := dataset.Generate(spec)
	if err != nil {
		return kmeansmr.Env{}, nil, err
	}
	if splitSize == 0 {
		// ≈ 18 bytes per coordinate in the text encoding.
		approxBytes := spec.N * spec.Dim * 18
		splitSize = approxBytes / 32
		if splitSize < 4<<10 {
			splitSize = 4 << 10
		}
	}
	fs := dfs.New(splitSize)
	ds.WriteToDFS(fs, "/data/points.txt")
	env := kmeansmr.Env{FS: fs, Cluster: cluster, Input: "/data/points.txt", Dim: spec.Dim}
	return env, ds, nil
}

// table renders rows as an aligned text table.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", width[i]-len(c)))
		}
		sb.WriteString("\n")
	}
	writeRow(header)
	total := len(header)*2 - 2
	for _, w := range width {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// writeCSV writes rows (with header) to CSVDir/name.csv when CSVDir is set.
func writeCSV(opts Options, name string, header []string, rows [][]string) error {
	if opts.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(opts.CSVDir, 0o755); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(header, ","))
	sb.WriteString("\n")
	for _, row := range rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteString("\n")
	}
	return os.WriteFile(filepath.Join(opts.CSVDir, name+".csv"), []byte(sb.String()), 0o644)
}

// sortedKeys returns the sorted int keys of a map.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func fmtF(x float64, prec int) string { return fmt.Sprintf("%.*f", prec, x) }
func fmtI(x int64) string             { return fmt.Sprintf("%d", x) }
