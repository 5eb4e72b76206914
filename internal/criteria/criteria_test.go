package criteria

import (
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/vec"
)

// clusteringsFor builds candidate clusterings for k = 1..kmax over points.
func clusteringsFor(t *testing.T, points []vec.Vector, kmax int) []Clustering {
	t.Helper()
	out := make([]Clustering, 0, kmax)
	for k := 1; k <= kmax; k++ {
		res, err := lloyd.BestOf(points, lloyd.Config{K: k, Seeding: lloyd.SeedPlusPlus, Seed: int64(k)}, 3)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, FromResult(res))
	}
	return out
}

func trueKData(t *testing.T, k int, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{K: k, Dim: 2, N: 150 * k, MinSeparation: 30, StdDev: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestElbowFindsTrueK(t *testing.T) {
	ds := trueKData(t, 3, 2)
	cs := clusteringsFor(t, ds.Points, 6)
	k, err := ElbowK(cs)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Errorf("ElbowK = %d, want 3", k)
	}
}

func TestElbowNeedsThree(t *testing.T) {
	if _, err := ElbowK([]Clustering{{K: 1}, {K: 2}}); err == nil {
		t.Error("ElbowK accepted two candidates")
	}
}

func TestSilhouetteFindsTrueK(t *testing.T) {
	ds := trueKData(t, 4, 3)
	cs := clusteringsFor(t, ds.Points, 7)
	k, err := SilhouetteK(ds.Points, cs, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Errorf("SilhouetteK = %d, want 4", k)
	}
}

func TestSilhouetteRange(t *testing.T) {
	ds := trueKData(t, 3, 4)
	cs := clusteringsFor(t, ds.Points, 5)
	for _, c := range cs {
		s := Silhouette(ds.Points, c, 150, 2)
		if s < -1 || s > 1 {
			t.Errorf("silhouette %v out of [-1,1] at k=%d", s, c.K)
		}
	}
	// k=1: silhouette undefined, must return 0 rather than crash.
	if s := Silhouette(ds.Points, cs[0], 0, 1); s != 0 {
		t.Errorf("silhouette at k=1 = %v, want 0", s)
	}
}

func TestSilhouetteGoodBeatsBad(t *testing.T) {
	ds := trueKData(t, 3, 5)
	good := clusteringsFor(t, ds.Points, 3)[2]
	// Deliberately bad clustering: everything split by a hyperplane.
	badAssign := make([]int, len(ds.Points))
	for i, p := range ds.Points {
		if p[0] > 50 {
			badAssign[i] = 1
		}
	}
	centers := []vec.Vector{{25, 50}, {75, 50}}
	bad := Clustering{K: 2, Centers: centers, Assignment: badAssign,
		WCSS: lloyd.WCSS(ds.Points, centers, badAssign)}
	if Silhouette(ds.Points, good, 150, 1) <= Silhouette(ds.Points, bad, 150, 1) {
		t.Error("good clustering should out-silhouette an arbitrary split")
	}
}

func TestJumpFindsTrueK(t *testing.T) {
	ds := trueKData(t, 4, 9)
	cs := clusteringsFor(t, ds.Points, 7)
	k, err := JumpK(ds.Points, cs)
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Errorf("JumpK = %d, want 4", k)
	}
}

func TestBICFindsTrueK(t *testing.T) {
	ds := trueKData(t, 3, 10)
	cs := clusteringsFor(t, ds.Points, 6)
	k, err := BICK(ds.Points, cs)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Errorf("BICK = %d, want 3", k)
	}
}

func TestBICPrefersTrueStructure(t *testing.T) {
	ds := trueKData(t, 3, 11)
	cs := clusteringsFor(t, ds.Points, 6)
	bic3 := BIC(ds.Points, cs[2])
	bic1 := BIC(ds.Points, cs[0])
	if bic3 <= bic1 {
		t.Errorf("BIC(k=3)=%v should beat BIC(k=1)=%v on 3-cluster data", bic3, bic1)
	}
}

func TestSelectorsNeedTwo(t *testing.T) {
	one := []Clustering{{K: 1}}
	pts := []vec.Vector{{0}, {1}}
	if _, err := SilhouetteK(pts, one, 0, 1); err == nil {
		t.Error("SilhouetteK accepted one candidate")
	}
	if _, err := JumpK(pts, one); err == nil {
		t.Error("JumpK accepted one candidate")
	}
	if _, err := BICK(pts, one); err == nil {
		t.Error("BICK accepted one candidate")
	}
}

func TestFromResult(t *testing.T) {
	pts := []vec.Vector{{0}, {1}, {10}, {11}}
	res, err := lloyd.Run(pts, lloyd.Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := FromResult(res)
	if c.K != 2 || c.WCSS != res.WCSS || len(c.Assignment) != 4 {
		t.Errorf("FromResult = %+v", c)
	}
}
