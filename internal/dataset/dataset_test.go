package dataset

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/vec"
)

func TestGenerateShape(t *testing.T) {
	ds, err := Generate(Spec{K: 5, Dim: 3, N: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Points) != 1000 || len(ds.Labels) != 1000 {
		t.Fatalf("points=%d labels=%d", len(ds.Points), len(ds.Labels))
	}
	if len(ds.Centers) != 5 {
		t.Fatalf("centers=%d", len(ds.Centers))
	}
	for _, p := range ds.Points {
		if len(p) != 3 {
			t.Fatalf("point dim %d", len(p))
		}
	}
	counts := map[int]int{}
	for _, l := range ds.Labels {
		counts[l]++
	}
	for c := 0; c < 5; c++ {
		if counts[c] != 200 {
			t.Errorf("cluster %d has %d points, want 200", c, counts[c])
		}
	}
}

func TestGenerateDeterminism(t *testing.T) {
	spec := Spec{K: 4, Dim: 2, N: 200, Seed: 77}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if !vec.Equal(a.Points[i], b.Points[i]) {
			t.Fatalf("point %d differs across same-seed runs", i)
		}
	}
	c, err := Generate(Spec{K: 4, Dim: 2, N: 200, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Points {
		if !vec.Equal(a.Points[i], c.Points[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGeneratePointsNearTheirCenters(t *testing.T) {
	ds, err := Generate(Spec{K: 3, Dim: 2, N: 3000, StdDev: 0.5, MinSeparation: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ds.Points {
		d := vec.Dist(p, ds.Centers[ds.Labels[i]])
		// 6 sigma in 2-D is astronomically safe for 3000 draws.
		if d > 6*0.5*math.Sqrt2*2 {
			t.Fatalf("point %d is %.2f away from its center", i, d)
		}
	}
}

func TestGenerateMinSeparation(t *testing.T) {
	ds, err := Generate(Spec{K: 8, Dim: 2, N: 80, MinSeparation: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ds.Centers); i++ {
		for j := i + 1; j < len(ds.Centers); j++ {
			if d := vec.Dist(ds.Centers[i], ds.Centers[j]); d < 15 {
				t.Errorf("centers %d,%d only %.2f apart", i, j, d)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	for _, spec := range []Spec{
		{K: 0, Dim: 2, N: 10},
		{K: 2, Dim: 0, N: 10},
		{K: 10, Dim: 2, N: 5},
	} {
		if _, err := Generate(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	p := vec.Vector{1.5, -2.25, 3.141592653589793, 0, 1e-17, 6.02e23}
	line := FormatPoint(p)
	got, err := ParsePoint(line)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(got, p) {
		t.Errorf("round trip: %v -> %q -> %v", p, line, got)
	}
}

func TestParsePointErrors(t *testing.T) {
	if _, err := ParsePoint(""); err == nil {
		t.Error("empty line accepted")
	}
	if _, err := ParsePoint("1.0 abc"); err == nil {
		t.Error("garbage coordinate accepted")
	}
}

func TestParsePointToleratesWhitespace(t *testing.T) {
	got, err := ParsePoint("  1.0\t 2.0   3.0 ")
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(got, vec.Vector{1, 2, 3}) {
		t.Errorf("got %v", got)
	}
}

// TestWriteLoadDFS round-trips a dataset through the DFS: the written file
// serves its points bit-identically through the split reader, and so does
// a raw copy of its bytes, which the reader must parse.
func TestWriteLoadDFS(t *testing.T) {
	ds, err := Generate(Spec{K: 3, Dim: 4, N: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(256) // several splits
	ds.WriteToDFS(fs, "/pts")
	raw, err := fs.Contents("/pts")
	if err != nil {
		t.Fatal(err)
	}
	fs.Create("/raw", raw)
	for _, path := range []string{"/pts", "/raw"} {
		splits, err := fs.Splits(path)
		if err != nil {
			t.Fatal(err)
		}
		var got []vec.Vector
		for _, sp := range splits {
			ps, err := fs.OpenSplitPoints(sp, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ps.Len(); i++ {
				got = append(got, ps.At(i))
			}
		}
		if len(splits) < 2 || len(got) != 50 {
			t.Fatalf("%s: loaded %d points from %d splits", path, len(got), len(splits))
		}
		for i := range got {
			if !vec.Equal(got[i], ds.Points[i]) {
				t.Fatalf("%s: point %d differs after DFS round trip", path, i)
			}
		}
	}
}

func TestPropCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(16)
		p := make(vec.Vector, d)
		for i := range p {
			switch r.Intn(4) {
			case 0:
				p[i] = r.NormFloat64() * 1e6
			case 1:
				p[i] = r.NormFloat64() * 1e-6
			case 2:
				p[i] = float64(r.Intn(1000))
			default:
				p[i] = r.NormFloat64()
			}
		}
		got, err := ParsePoint(FormatPoint(p))
		return err == nil && vec.Equal(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFormatPointSingleDim(t *testing.T) {
	if got := FormatPoint(vec.Vector{42}); strings.Contains(got, " ") {
		t.Errorf("single-dim point has separator: %q", got)
	}
}

func TestGenerateWeighted(t *testing.T) {
	ds, err := Generate(Spec{K: 3, Dim: 2, N: 1000, Weights: []float64{0.7, 0.2, 0.1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, l := range ds.Labels {
		counts[l]++
	}
	if counts[0] != 700 || counts[1] != 200 || counts[2] != 100 {
		t.Errorf("weighted sizes = %v, want 700/200/100", counts)
	}
}

func TestGenerateWeightedRounding(t *testing.T) {
	// Weights that don't divide N exactly must still cover all N points.
	ds, err := Generate(Spec{K: 3, Dim: 2, N: 100, Weights: []float64{1, 1, 1}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	counts := map[int]int{}
	for _, l := range ds.Labels {
		counts[l]++
		total++
	}
	if total != 100 {
		t.Fatalf("total = %d", total)
	}
	for c := 0; c < 3; c++ {
		if counts[c] < 33 || counts[c] > 34 {
			t.Errorf("cluster %d has %d points", c, counts[c])
		}
	}
}

func TestGenerateWeightsValidation(t *testing.T) {
	if _, err := Generate(Spec{K: 2, Dim: 2, N: 10, Weights: []float64{1}}); err == nil {
		t.Error("wrong weight count accepted")
	}
	if _, err := Generate(Spec{K: 2, Dim: 2, N: 10, Weights: []float64{1, -1}}); err == nil {
		t.Error("negative weight accepted")
	}
}
