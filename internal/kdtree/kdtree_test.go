package kdtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gmeansmr/internal/vec"
)

func randCenters(r *rand.Rand, k, dim int) []vec.Vector {
	out := make([]vec.Vector, k)
	for i := range out {
		out[i] = make(vec.Vector, dim)
		for d := range out[i] {
			out[i][d] = r.Float64() * 100
		}
	}
	return out
}

func TestNearestSingleCenter(t *testing.T) {
	tree := Build([]vec.Vector{{5, 5}})
	idx, d2 := tree.Nearest(vec.Vector{8, 9})
	if idx != 0 || d2 != 25 {
		t.Errorf("Nearest = (%d, %v), want (0, 25)", idx, d2)
	}
}

func TestBuildEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build(nil)
}

func TestNearestKnownLayout(t *testing.T) {
	centers := []vec.Vector{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}}
	tree := Build(centers)
	cases := []struct {
		p    vec.Vector
		want int
	}{
		{vec.Vector{1, 1}, 0},
		{vec.Vector{9, 1}, 1},
		{vec.Vector{1, 9}, 2},
		{vec.Vector{9, 9}, 3},
		{vec.Vector{5, 5}, 4},
		{vec.Vector{4.9, 5.2}, 4},
	}
	for _, c := range cases {
		got, _ := tree.Nearest(c.p)
		if got != c.want {
			t.Errorf("Nearest(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestSize(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tree := Build(randCenters(r, 17, 3))
	if tree.Size() != 17 {
		t.Errorf("Size = %d", tree.Size())
	}
}

func TestNearestTieResolvesToLowestIndex(t *testing.T) {
	// Two identical centers: linear scan picks index 0; so must the tree.
	centers := []vec.Vector{{3, 3}, {3, 3}, {9, 9}}
	tree := Build(centers)
	got, _ := tree.Nearest(vec.Vector{3.1, 3})
	if got != 0 {
		t.Errorf("tie resolved to %d, want 0", got)
	}
	// Symmetric tie: query equidistant from two distinct centers.
	centers = []vec.Vector{{0, 0}, {2, 0}}
	tree = Build(centers)
	got, _ = tree.Nearest(vec.Vector{1, 0})
	if got != 0 {
		t.Errorf("equidistant tie resolved to %d, want 0", got)
	}
}

// TestPropMatchesLinearScan is the tree's defining property: for any
// centers and any query, Nearest agrees exactly with vec.NearestIndex.
func TestPropMatchesLinearScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(64)
		dim := 1 + r.Intn(8)
		centers := randCenters(r, k, dim)
		tree := Build(centers)
		for q := 0; q < 20; q++ {
			p := make(vec.Vector, dim)
			for d := range p {
				p[d] = r.Float64()*120 - 10
			}
			wantIdx, wantD := vec.NearestIndex(p, centers)
			gotIdx, gotD := tree.Nearest(p)
			if gotIdx != wantIdx || gotD != wantD {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropMatchesLinearScanClusteredCenters exercises the pruning logic on
// pathological center layouts (tight groups, duplicates).
func TestPropMatchesLinearScanClusteredCenters(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 2 + r.Intn(3)
		var centers []vec.Vector
		for g := 0; g < 4; g++ {
			base := make(vec.Vector, dim)
			for d := range base {
				base[d] = r.Float64() * 100
			}
			for i := 0; i < 1+r.Intn(6); i++ {
				c := vec.Clone(base)
				c[r.Intn(dim)] += r.NormFloat64() * 0.01
				centers = append(centers, c)
			}
		}
		tree := Build(centers)
		for q := 0; q < 10; q++ {
			p := make(vec.Vector, dim)
			for d := range p {
				p[d] = r.Float64() * 100
			}
			wantIdx, _ := vec.NearestIndex(p, centers)
			gotIdx, _ := tree.Nearest(p)
			if gotIdx != wantIdx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkNearestTreeVsLinear is the mrkd-tree ablation: wall time and
// full distance computations per query of the pruned descent against the
// linear scan's k.
func BenchmarkNearestTreeVsLinear(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	centers := randCenters(r, 512, 10)
	queries := randCenters(r, 256, 10)
	tree := Build(centers)
	b.Run("kdtree", func(b *testing.B) {
		var comps int64
		for i := 0; i < b.N; i++ {
			_, _, c := tree.NearestCounted(queries[i%len(queries)])
			comps += c
		}
		b.ReportMetric(float64(comps)/float64(b.N), "distances/op")
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vec.NearestIndex(queries[i%len(queries)], centers)
		}
		b.ReportMetric(float64(len(centers)), "distances/op")
	})
}
