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
// counter of the run): every job of every round — the k-means passes, the
// PCA candidate job and both normality-test strategies. The columnar
// mappers were pinned to the per-point row-major path while both existed;
// the digests are the same on amd64 and under GOARCH=386.
func TestGMeansColumnarMatchesRowMajor(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		digest string
	}{
		{"few-clusters", Config{ForceStrategy: StrategyFewClusters}, "1d0a8db11c84a00edbf61fdb"},
		{"reducer", Config{ForceStrategy: StrategyReducer}, "0a66b3868b2287a4daa94f28"},
		{"pca-candidates", Config{}, "1d0a8db11c84a00edbf61fdb"},
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
