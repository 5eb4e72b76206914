package core

import (
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/invariants"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
)

// TestGMeansColumnarMatchesRowMajor pins the whole G-means trajectory to
// golden digests (invariants.Digest over the final centers and every
// counter of the run): every job of every round — the fused k-means +
// candidate pass with and without combiners, both normality-test
// strategies, and the PCA candidate job. The digests were recorded from
// both the per-point row-major mapper path and the batched columnar path
// while both existed — they agreed, on amd64 and under GOARCH=386 — so the
// columnar mappers that remain reproduce the row-major decisions bit for
// bit.
func TestGMeansColumnarMatchesRowMajor(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		digest string
	}{
		{"few-clusters", Config{ForceStrategy: StrategyFewClusters}, "e9b3573dc3b7696f9b231f5d"},
		{"reducer", Config{ForceStrategy: StrategyReducer}, "888158c3fba7da6d59fb59f1"},
		{"pca-candidates", Config{Candidates: CandidatesPCA}, "cb86ef944b8517f47b9df678"},
		{"no-combiners", Config{DisableCombiners: true}, "0c48368c0b0913c63e934c71"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := dataset.Generate(dataset.Spec{K: 3, Dim: 16, N: 2400,
				CenterRange: 100, StdDev: 1, MinSeparation: 20, Seed: 93})
			if err != nil {
				t.Fatal(err)
			}
			fs := dfs.New(24 << 10)
			ds.WriteToDFS(fs, "/p.txt")
			cfg := tc.cfg
			cfg.Env = kmeansmr.Env{
				FS: fs,
				Cluster: mr.Cluster{Nodes: 2, MapSlotsPerNode: 2, ReduceSlotsPerNode: 2,
					TaskHeapBytes: 64 << 20, MaxHeapUsage: 0.66},
				Input: "/p.txt",
				Dim:   16,
			}
			cfg.Seed = 94
			cfg.MaxIterations = 6
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			centers := make([][]float64, len(res.Centers))
			for i, c := range res.Centers {
				centers[i] = c
			}
			if got := invariants.Digest(centers, nil, res.Counters.Snapshot()); got != tc.digest {
				t.Errorf("k=%d after %d rounds, digest %s, want %s", res.K, res.Iterations, got, tc.digest)
			}
		})
	}
}
