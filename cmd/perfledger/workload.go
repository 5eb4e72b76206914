package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gmeansmr"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/vec"
)

// trainSpec sizes a training workload: the mixture each dataset is drawn
// from and the facade options every Run uses.
type trainSpec struct {
	N, K, Dim int
	// Datasets is how many seeded datasets the measured Runs cycle
	// through. G-means' work depends on the data (rounds, discovered k),
	// so one dataset per run would make every run's median hostage to
	// that dataset's difficulty.
	Datasets int
	Backend  gmeansmr.Backend
	// MultiK selects the multi-k-means baseline over k = 1..KMax with
	// Iterations Lloyd iterations and the elbow criterion; otherwise the
	// run is MR G-means with the facade's default α and rounds.
	MultiK     bool
	KMax       int
	Iterations int
}

// serveSpec sizes the serving workload.
type serveSpec struct {
	K, Dim int
	// SingleRate and BatchRate are the open-loop arrival rates (per
	// second) of JSON singletons on connection 1 and GMPB batches on
	// connection 2 during phase A.
	SingleRate, BatchRate float64
	BatchSize             int
	// SwapEvery is the hot-swap period during phase A.
	SwapEvery time.Duration
	// SetupBatch is how many model.Load + serve.New set-ups the run
	// times after each slice of a phase, after as many unmeasured ones at
	// the start.
	SetupBatch int
	// DirectReps is how many direct (in-process) calls the traced run
	// times per call kind.
	DirectReps int
}

// workload is one named input set of the benchmark.
type workload struct {
	Name  string
	Train *trainSpec
	Serve *serveSpec
}

// workloads are the benchmark's fixed inputs. Why each exists is in
// BENCHMARK.json and README.md.
var workloads = []workload{
	{Name: "gmeans-local", Train: &trainSpec{N: 200_000, K: 32, Dim: 16, Datasets: 8, Backend: gmeansmr.BackendLocal}},
	{Name: "gmeans-proc", Train: &trainSpec{N: 200_000, K: 32, Dim: 16, Datasets: 8, Backend: gmeansmr.BackendProc}},
	{Name: "multik", Train: &trainSpec{N: 100_000, K: 32, Dim: 16, Datasets: 8, Backend: gmeansmr.BackendLocal,
		MultiK: true, KMax: 64, Iterations: 5}},
	{Name: "serve", Serve: &serveSpec{K: 32, Dim: 16, SingleRate: 2000, BatchRate: 200, BatchSize: 1024,
		SwapEvery: 250 * time.Millisecond, SetupBatch: 50, DirectReps: 2000}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// nodes is the simulated cluster size of every training workload: one
// node per CPU of the two-core machines the benchmark targets.
const nodes = 2

// mixtureSpec is the Gaussian mixture dataset i of a run seeded with
// seed is drawn from.
func mixtureSpec(k, dim, n int, seed int64, i int) dataset.Spec {
	return dataset.Spec{K: k, Dim: dim, N: n, CenterRange: 100, StdDev: 1, MinSeparation: 8, Seed: seed*1000 + int64(i)}
}

// datasetPath is where dataset i of a workload lives inside dir.
func datasetPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("data-%d.gmpb", i))
}

// writeDataset streams the mixture of spec into a GMPB point file at
// path.
func writeDataset(path string, spec dataset.Spec) error {
	st, err := dataset.NewStream(spec)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := bw.Write(dfs.BinaryHeader(spec.Dim)); err != nil {
		return err
	}
	var frame []byte
	for {
		p, _, ok := st.Next()
		if !ok {
			break
		}
		frame = dfs.AppendBinaryPoint(frame[:0], p)
		if _, err := bw.Write(frame); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// loadPoints reads a GMPB point file back as row vectors.
func loadPoints(path string) ([]vec.Vector, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dim, flat, err := dfs.DecodeBinaryPoints(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	pts := make([]vec.Vector, len(flat)/dim)
	for i := range pts {
		pts[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return pts, nil
}

// trainOptions are the facade options of every Run of t.
func trainOptions(t *trainSpec, seed int64, backend gmeansmr.Backend) []gmeansmr.Option {
	opts := []gmeansmr.Option{gmeansmr.WithSeed(seed), gmeansmr.WithNodes(nodes), gmeansmr.WithBackend(backend)}
	if t.MultiK {
		opts = append(opts,
			gmeansmr.WithAlgorithm(gmeansmr.AlgorithmMultiK),
			gmeansmr.WithKRange(1, t.KMax, 1),
			gmeansmr.WithMultiKIterations(t.Iterations),
			gmeansmr.WithCriterion(gmeansmr.CriterionElbow))
	}
	return opts
}
