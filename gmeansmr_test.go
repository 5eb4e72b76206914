package gmeansmr

import (
	"bytes"
	"context"
	"math"
	"testing"

	"gmeansmr/internal/vec"
)

// runPoints trains on in-memory points through New(...).Run.
func runPoints(points []Point, opts ...Option) (*Result, error) {
	c, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return c.Run(context.Background(), FromPoints(points))
}

func TestClusterFacadeEndToEnd(t *testing.T) {
	ds, err := GenerateDataset(DatasetSpec{K: 6, Dim: 2, N: 6000, MinSeparation: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPoints(ds.Points, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 6 || res.K > 12 {
		t.Fatalf("discovered k=%d for true k=6", res.K)
	}
	if len(res.Assignment) != len(ds.Points) {
		t.Fatalf("assignment length %d", len(res.Assignment))
	}
	for i, a := range res.Assignment {
		if a < 0 || a >= res.K {
			t.Fatalf("assignment[%d]=%d out of range", i, a)
		}
		// The assignment must actually be nearest-center.
		want, _ := vec.NearestIndex(ds.Points[i], res.Centers)
		if want != a {
			t.Fatalf("assignment[%d]=%d, nearest is %d", i, a, want)
		}
	}
	for _, truth := range ds.Centers {
		_, d2 := vec.NearestIndex(truth, res.Centers)
		if math.Sqrt(d2) > 4 {
			t.Errorf("no discovered center near truth %v", truth)
		}
	}
	if res.Counters["app.distance.computations"] == 0 {
		t.Error("counters not exposed")
	}
	if res.Iterations < 3 {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

// TestModelServeFacadeEndToEnd walks the full production path: train,
// convert to a model, persist, reload, serve — and checks the served
// (kd-tree) answers against brute-force nearest center.
func TestModelServeFacadeEndToEnd(t *testing.T) {
	ds, err := GenerateDataset(DatasetSpec{K: 10, Dim: 3, N: 8000, MinSeparation: 20, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPoints(ds.Points, WithSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModel(res, ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != res.K || m.Meta.Algorithm != "gmeans-mr" || m.Meta.Iterations != res.Iterations {
		t.Fatalf("model metadata: %+v", m.Meta)
	}
	var total int64
	for _, c := range m.Counts {
		total += c
	}
	if total != int64(len(ds.Points)) {
		t.Fatalf("counts sum to %d, want %d", total, len(ds.Points))
	}

	var buf bytes.Buffer
	if err := SaveModel(m, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(loaded, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ds.Points); i += 97 {
		got, err := srv.Assign(ds.Points[i])
		if err != nil {
			t.Fatal(err)
		}
		want, wantD2 := vec.NearestIndex(ds.Points[i], loaded.Centers)
		if got.Cluster != want || got.Distance != math.Sqrt(wantD2) {
			t.Fatalf("point %d: served %+v, brute force wants cluster %d distance %g",
				i, got, want, math.Sqrt(wantD2))
		}
	}
}

func TestClusterFacadeValidation(t *testing.T) {
	if _, err := runPoints(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := runPoints([]Point{{1, 2}, {1}}); err == nil {
		t.Error("ragged input accepted")
	}
}

func TestClusterFacadeMaxK(t *testing.T) {
	ds, err := GenerateDataset(DatasetSpec{K: 12, Dim: 2, N: 6000, MinSeparation: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPoints(ds.Points, WithSeed(4), WithMaxK(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 5 {
		t.Errorf("MaxK=5 but k=%d", res.K)
	}
}

func TestClusterFacadeMergeAuto(t *testing.T) {
	ds, err := GenerateDataset(DatasetSpec{K: 8, Dim: 2, N: 8000, MinSeparation: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runPoints(ds.Points, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := runPoints(ds.Points, WithSeed(6), WithMergeRadius(MergeAuto))
	if err != nil {
		t.Fatal(err)
	}
	if merged.K > plain.K {
		t.Errorf("auto-merge increased k: %d > %d", merged.K, plain.K)
	}
	if merged.K < 6 {
		t.Errorf("auto-merge collapsed too far: k=%d", merged.K)
	}
}

func TestClusterFacadeNodesOption(t *testing.T) {
	ds, err := GenerateDataset(DatasetSpec{K: 4, Dim: 2, N: 3000, MinSeparation: 25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPoints(ds.Points, WithSeed(8), WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 4 || res.K > 8 {
		t.Errorf("k=%d with 2-node cluster", res.K)
	}
}
