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
// counter of the run): every job of every round — the k-means pass, the
// last pass that also places the principal children, and the normality
// test, on every projection of small clusters ("pca-candidates") and on a
// bounded sample of large ones ("reducer"). The columnar mappers were
// pinned to the per-point row-major path while both existed; the digests
// are the same on amd64 and under GOARCH=386.
//
// Both digests were re-recorded when the candidate job was folded into the
// last k-means pass. In both cases the final centers, the rounds, the
// projections and the AD tests are unchanged bit for bit; only the
// counters moved: each round runs one job fewer (the engine's job, task,
// record and byte counters), the distance count drops by that job's
// assignment (2,555,904 → 1,835,008 and 93,600 → 67,200), and
// app.cov_updates is new.
//
// They were re-recorded again when the engine's combine stage was
// deleted: each is the earlier digest (dd62f236463268bb8ba5b915,
// 175a4ccd7f8736e68d544d15) with the two mr.combine.* counters, which
// nothing ticks any more, left out of the snapshot.
func TestGMeansColumnarMatchesRowMajor(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		digest string
	}{
		{"reducer", 16 * testSampleSize, "52aca1be6683352a3fe60302"},
		{"pca-candidates", 2400, "1122b905b7943fba2bf953fc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := dataset.Generate(dataset.Spec{K: 3, Dim: 16, N: tc.n,
				CenterRange: 100, StdDev: 1, MinSeparation: 20, Seed: 93})
			if err != nil {
				t.Fatal(err)
			}
			fs := dfs.New(24 << 10)
			ds.WriteToDFS(fs, "/p.txt")
			var cfg Config
			cfg.Env = kmeansmr.Env{
				FS:      fs,
				Cluster: mr.DefaultCluster().WithNodes(2),
				Input:   "/p.txt",
				Dim:     16,
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
