package kmeansmr

import (
	"sort"
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/invariants"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/vec"
)

// Golden digests (invariants.Digest over centers, sizes and every counter
// of Counters.Snapshot) of the columnarEquivEnv runs below. They were
// recorded from both the per-point row-major mapper path and the columnar
// path while both existed — the two gave the same digest, on amd64 and
// under GOARCH=386 — so the columnar mappers that remain are pinned to
// the row-major results bit for bit, with no second path kept to compare
// against. Both were re-recorded when the engine's combine stage was
// deleted: each is the earlier digest (15e9048455e9a8f2a1563af4,
// 84c0180c20dcbab4aef418ce) with the two mr.combine.* counters, which
// nothing ticks any more, left out of the snapshot.
const (
	goldenIterateDigest = "1606fefa06c02289f6b1c31e"
	goldenMultiDigest   = "e033cc13c05afb59408b64bd"
)

// columnarEquivEnv builds a multi-split environment over a freshly
// generated mixture. dim ≥ 16 exercises both the scalar early-exit path
// and the SIMD tile kernel; the odd dimensionality also covers the batch
// kernels' tail-dimension lane.
func columnarEquivEnv(t *testing.T) (Env, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{K: 6, Dim: 17, N: 3000,
		CenterRange: 100, StdDev: 1, MinSeparation: 10, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(16 << 10) // many splits, boundaries inside records
	ds.WriteToDFS(fs, "/p.txt")
	cluster := mr.DefaultCluster().WithNodes(2)
	return Env{FS: fs, Cluster: cluster, Input: "/p.txt", Dim: 17}, ds
}

func rows(cs []vec.Vector) [][]float64 {
	out := make([][]float64, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

// TestIterateColumnarMatchesRowMajorExactly is the layout contract of the
// columnar mapper: one MR k-means iteration through the batched dim-major
// kernel must reproduce the row-major path's centers, sizes and engine/app
// counters bit for bit (see goldenIterateDigest).
func TestIterateColumnarMatchesRowMajorExactly(t *testing.T) {
	env, ds := columnarEquivEnv(t)
	res, err := Iterate(env, vec.CloneAll(ds.Points[:9]))
	if err != nil {
		t.Fatal(err)
	}
	if got := invariants.Digest(rows(res.Centers), res.Sizes, res.Job.Counters.Snapshot()); got != goldenIterateDigest {
		t.Errorf("Iterate digest = %s, want %s", got, goldenIterateDigest)
	}
}

// TestRunMultiColumnarMatchesRowMajor pins the multi-k-means pipeline
// (assignment for every candidate k, plus the Evaluate scoring job) to the
// row-major path's results: every center set, both scores per k and the
// aggregated counters.
func TestRunMultiColumnarMatchesRowMajor(t *testing.T) {
	env, _ := columnarEquivEnv(t)
	cfg := MultiConfig{Env: env, KMin: 2, KMax: 6, KStep: 2, Iterations: 3, Seed: 92}
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Evaluate(cfg, res); err != nil {
		t.Fatal(err)
	}
	var ks []int
	for k := range res.CentersByK {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	var digested [][]float64
	for _, k := range ks {
		digested = append(digested, rows(res.CentersByK[k])...)
		digested = append(digested, []float64{res.WCSSByK[k], res.AvgDistByK[k]})
	}
	if got := invariants.Digest(digested, nil, res.Counters.Snapshot()); got != goldenMultiDigest {
		t.Errorf("RunMulti+Evaluate digest = %s, want %s", got, goldenMultiDigest)
	}
}
