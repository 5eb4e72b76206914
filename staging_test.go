package gmeansmr

import (
	"context"
	"fmt"
	"os"
	"testing"

	"gmeansmr/internal/invariants"
	"gmeansmr/internal/mrdist"
)

// TestMain lets the proc backend spawn this test binary as its workers.
func TestMain(m *testing.M) {
	mrdist.MaybeWorker()
	os.Exit(m.Run())
}

// TestStagedPointsMatchColdParse pins the staging contract: Run serves
// its scans from the points the staged file was written from, and must
// give exactly the centers and counters of the same algorithm over a
// file Created from the same text, whose every split is parsed cold. It
// covers MR G-means and multi-k-means on the local and proc backends.
func TestStagedPointsMatchColdParse(t *testing.T) {
	spec := DatasetSpec{K: 5, Dim: 4, N: 3000, MinSeparation: 12, Seed: 14}
	ctx := context.Background()
	for _, backend := range []Backend{BackendLocal, BackendProc} {
		for _, algo := range []Algorithm{AlgorithmGMeansMR, AlgorithmMultiK} {
			t.Run(fmt.Sprintf("%s/%s", backend, algo), func(t *testing.T) {
				c, err := New(WithAlgorithm(algo), WithBackend(backend), WithNodes(2),
					WithKRange(1, 8, 1), WithSeed(3))
				if err != nil {
					t.Fatal(err)
				}
				src := FromMixture(spec)
				res, err := c.Run(ctx, src)
				if err != nil {
					t.Fatal(err)
				}

				st, err := c.stage(ctx, src, nil, backend)
				if err != nil {
					t.Fatal(err)
				}
				defer st.cleanup()
				text, err := st.env.FS.Contents(st.env.Input)
				if err != nil {
					t.Fatal(err)
				}
				st.env.FS.Create(st.env.Input, text) // drops the written points
				var cold *Result
				if algo == AlgorithmMultiK {
					cold, err = c.multiK(st, src)
				} else {
					cold, err = c.gmeansMR(ctx, st, src, nil)
				}
				if err != nil {
					t.Fatal(err)
				}

				got := invariants.Digest(res.Centers, nil, res.Counters)
				want := invariants.Digest(cold.Centers, nil, cold.Counters)
				if got != want {
					t.Fatalf("Run digest %s, cold-parse digest %s (k %d vs %d)", got, want, res.K, cold.K)
				}
			})
		}
	}
}
