package vec

import (
	"math"
	"math/rand"
	"testing"
)

func packFixture(t testing.TB, k, dim int, seed int64) ([]Vector, []Vector) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	centers := make([]Vector, k)
	for i := range centers {
		c := make(Vector, dim)
		for j := range c {
			c[j] = rng.NormFloat64() * 50
		}
		centers[i] = c
	}
	points := make([]Vector, 257) // odd count exercises the SIMD tail
	for i := range points {
		p := make(Vector, dim)
		for j := range p {
			p[j] = rng.NormFloat64() * 60
		}
		points[i] = p
	}
	return centers, points
}

// TestPackNearestRowsMatchesNearestIndex is the pack's equivalence pin:
// kernel results through the packed, pooled path must be bit-identical
// to the scalar per-point reference, including the tie rule.
func TestPackNearestRowsMatchesNearestIndex(t *testing.T) {
	for _, tc := range []struct{ k, dim int }{
		{1, 1}, {3, 2}, {8, 3}, {32, 16}, {64, 7}, {128, 33},
	} {
		centers, points := packFixture(t, tc.k, tc.dim, int64(tc.k*100+tc.dim))
		p := PackCenters(centers)
		if p.K() != tc.k || p.Dim() != tc.dim {
			t.Fatalf("k=%d dim=%d: pack reports k=%d dim=%d", tc.k, tc.dim, p.K(), p.Dim())
		}
		s := p.GetScratch()
		idx, dist := p.NearestRows(points, s)
		for j, q := range points {
			wi, wd := NearestIndex(q, centers)
			if int(idx[j]) != wi || dist[j] != wd {
				t.Fatalf("k=%d dim=%d point %d: pack (%d, %v), NearestIndex (%d, %v)",
					tc.k, tc.dim, j, idx[j], dist[j], wi, wd)
			}
			if si, sd := p.Nearest(q); si != wi || sd != wd {
				t.Fatalf("k=%d dim=%d point %d: pack.Nearest (%d, %v), NearestIndex (%d, %v)",
					tc.k, tc.dim, j, si, sd, wi, wd)
			}
		}
		p.PutScratch(s)
	}
}

// TestPackIsACopy: mutating the source centers after packing must not
// change what the pack answers — the pack is the hot-swap publication
// unit and cannot alias caller memory.
func TestPackIsACopy(t *testing.T) {
	centers := []Vector{{0, 0}, {10, 0}}
	p := PackCenters(centers)
	centers[0][0] = 1e9
	if i, _ := p.Nearest(Vector{1, 0}); i != 0 {
		t.Fatalf("pack answered %d after source mutation; it aliases caller memory", i)
	}
}

// TestPackDegenerate: empty packs and non-finite points take the scalar
// kernel's documented degenerate outcomes (-1, +Inf).
func TestPackDegenerate(t *testing.T) {
	empty := PackCenters(nil)
	if i, d := empty.Nearest(Vector{1}); i != -1 || !math.IsInf(d, 1) {
		t.Fatalf("empty pack Nearest = (%d, %v)", i, d)
	}
	p := PackCenters([]Vector{{0, 0}, {3, 4}})
	idx, dist := p.NearestRows([]Vector{{math.NaN(), 0}, {1, 1}}, nil)
	if idx[0] != -1 || !math.IsInf(dist[0], 1) {
		t.Fatalf("NaN point = (%d, %v), want (-1, +Inf)", idx[0], dist[0])
	}
	if idx[1] != 0 {
		t.Fatalf("finite point misassigned: %d", idx[1])
	}
}

// TestPackScratchNoAlloc: after warm-up, the pooled request path must
// not allocate — that is the point of the pack.
func TestPackScratchNoAlloc(t *testing.T) {
	centers, points := packFixture(t, 32, 16, 4)
	p := PackCenters(centers)
	s := p.GetScratch()
	p.NearestRows(points, s) // warm the scratch to this batch size
	allocs := testing.AllocsPerRun(100, func() {
		p.NearestRows(points, s)
	})
	if allocs != 0 {
		t.Fatalf("warmed NearestRows allocates %v per call", allocs)
	}
	p.PutScratch(s)
}

func TestPackRaggedPanics(t *testing.T) {
	p := PackCenters([]Vector{{0, 0}})
	defer func() {
		if recover() == nil {
			t.Fatal("ragged point did not panic")
		}
	}()
	p.NearestRows([]Vector{{1, 2, 3}}, nil)
}
