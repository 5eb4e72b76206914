package gmeansmr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"gmeansmr/internal/vec"
)

// mixturePoints generates a small, well-separated test workload.
func mixturePoints(t *testing.T, k, dim, n int, seed int64) *Dataset {
	t.Helper()
	ds, err := GenerateDataset(DatasetSpec{K: k, Dim: dim, N: n, MinSeparation: 25, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestRunAllAlgorithms exercises every selectable algorithm through the
// same New(...).Run(ctx, src) call shape and checks the unified Result.
func TestRunAllAlgorithms(t *testing.T) {
	ds, err := GenerateDataset(DatasetSpec{K: 6, Dim: 2, N: 6000, MinSeparation: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgorithmGMeansMR, AlgorithmSeqGMeans, AlgorithmXMeans, AlgorithmMultiK} {
		t.Run(string(algo), func(t *testing.T) {
			opts := []Option{WithAlgorithm(algo), WithSeed(2)}
			if algo == AlgorithmMultiK {
				opts = append(opts, WithKRange(1, 12, 1))
			}
			c, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(context.Background(), FromPoints(ds.Points))
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != algo {
				t.Errorf("Algorithm = %q, want %q", res.Algorithm, algo)
			}
			if res.K < 5 || res.K > 12 {
				t.Errorf("k = %d for true k=6", res.K)
			}
			if len(res.Centers) != res.K {
				t.Errorf("len(Centers)=%d, K=%d", len(res.Centers), res.K)
			}
			if len(res.Assignment) != len(ds.Points) {
				t.Fatalf("assignment length %d, want %d", len(res.Assignment), len(ds.Points))
			}
			for i, a := range res.Assignment {
				if a < 0 || a >= res.K {
					t.Fatalf("assignment[%d]=%d out of range", i, a)
				}
			}
			if res.Counters == nil {
				t.Error("nil Counters")
			}
			if algo == AlgorithmMultiK && res.WCSSByK == nil {
				t.Error("multik result missing WCSSByK")
			}
		})
	}
}

// TestRunProgressEvents checks that the MR G-means run streams one event
// per round with strategy and engine counters attached.
func TestRunProgressEvents(t *testing.T) {
	ds := mixturePoints(t, 4, 2, 3000, 32)
	var events []Progress
	c, err := New(WithSeed(5), WithProgress(func(p Progress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), FromPoints(ds.Points))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != res.Iterations {
		t.Fatalf("%d progress events for %d iterations", len(events), res.Iterations)
	}
	for i, ev := range events {
		if ev.Algorithm != AlgorithmGMeansMR {
			t.Errorf("event %d algorithm %q", i, ev.Algorithm)
		}
		if ev.Round != i+1 {
			t.Errorf("event %d round %d", i, ev.Round)
		}
		if ev.Strategy == "" {
			t.Errorf("event %d has no strategy", i)
		}
		if ev.Counters["app.distance.computations"] == 0 {
			t.Errorf("event %d has no engine counters", i)
		}
	}
	last := events[len(events)-1]
	if last.K != res.K {
		t.Errorf("final event k=%d, result k=%d", last.K, res.K)
	}
}

// TestRunCancelledBeforeStart: an already-cancelled context never starts
// the run.
func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := New()
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(ctx, FromPoints([]Point{{1, 2}, {3, 4}}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunMidRunCancellation cancels the context from the first progress
// event — i.e. between MR waves — and checks the run aborts promptly with
// context.Canceled and leaks no goroutines.
func TestRunMidRunCancellation(t *testing.T) {
	ds := mixturePoints(t, 8, 4, 20_000, 33)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := New(WithSeed(9), WithProgress(func(p Progress) {
		if p.Round == 1 {
			cancel()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = c.Run(ctx, FromPoints(ds.Points))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The run must stop within roughly one wave of the cancellation, not
	// complete all remaining rounds. Budget generously for CI noise.
	if elapsed > 30*time.Second {
		t.Errorf("cancelled run took %s", elapsed)
	}

	// All engine goroutines must have drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSeqAlgorithmsCancellation covers ctx observation in the in-memory
// algorithms.
func TestSeqAlgorithmsCancellation(t *testing.T) {
	ds := mixturePoints(t, 4, 2, 2000, 34)
	for _, algo := range []Algorithm{AlgorithmSeqGMeans, AlgorithmXMeans, AlgorithmMultiK} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		c, err := New(WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(ctx, FromPoints(ds.Points)); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", algo, err)
		}
	}
}

// TestInMemoryMergeReassigns drives the in-memory algorithms through a
// merge that lowers k: the merged result must re-assign every point to
// its nearest merged center, not keep the pre-merge assignment, and
// report the WCSS of the merged centers.
func TestInMemoryMergeReassigns(t *testing.T) {
	ds, err := GenerateDataset(DatasetSpec{K: 6, Dim: 2, N: 3000, MinSeparation: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgorithmSeqGMeans, AlgorithmXMeans} {
		t.Run(string(algo), func(t *testing.T) {
			run := func(opts ...Option) *Result {
				t.Helper()
				c, err := New(append([]Option{WithAlgorithm(algo), WithSeed(2)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run(context.Background(), FromPoints(ds.Points))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if k := run().K; k != 6 {
				t.Fatalf("unmerged k = %d, want 6", k)
			}
			res := run(WithMergeRadius(30))
			if res.K != 4 || len(res.Centers) != 4 {
				t.Fatalf("merged k = %d (%d centers), want 4", res.K, len(res.Centers))
			}
			if len(res.Assignment) != len(ds.Points) {
				t.Fatalf("assignment length %d, want %d", len(res.Assignment), len(ds.Points))
			}
			wcss := 0.0
			for i, p := range ds.Points {
				want, d2 := vec.NearestIndex(p, res.Centers)
				if res.Assignment[i] != want {
					t.Fatalf("Assignment[%d] = %d, nearest merged center is %d", i, res.Assignment[i], want)
				}
				wcss += d2
			}
			if math.Abs(res.WCSS-wcss) > 1e-9*wcss {
				t.Fatalf("WCSS = %g, merged centers give %g", res.WCSS, wcss)
			}
		})
	}
}

// Regression: a multi-k sweep whose configured KMax exceeds the dataset's
// point count must clamp the sweep to n instead of failing the seeding
// ("dataset has only 3 points, need 8 centers").
func TestMultiKRangeClampedToPointCount(t *testing.T) {
	points := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	c, err := New(WithAlgorithm(AlgorithmMultiK), WithSeed(7), WithKRange(1, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), FromPoints(points))
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 1 || res.K > 3 {
		t.Fatalf("k=%d, want within [1,3] for a 3-point dataset", res.K)
	}
	for k := range res.WCSSByK {
		if k > 3 {
			t.Errorf("candidate k=%d exceeds point count 3", k)
		}
	}
}

// TestCSVRoundTrip feeds the same dataset once as an in-memory slice and
// once as a streamed CSV and checks the discovered centers are identical —
// the parser and the staging path must not perturb the run.
func TestCSVRoundTrip(t *testing.T) {
	ds := mixturePoints(t, 5, 3, 4000, 35)

	var csv bytes.Buffer
	csv.WriteString("x,y,z\n") // header row must be tolerated
	for _, p := range ds.Points {
		fmt.Fprintf(&csv, "%v,%v,%v\n", p[0], p[1], p[2])
	}

	newC := func() *Clusterer {
		c, err := New(WithSeed(11), WithSplitSize(64<<10))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	mem, err := newC().Run(context.Background(), FromPoints(ds.Points))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := newC().Run(context.Background(), FromReader(&csv))
	if err != nil {
		t.Fatal(err)
	}

	if streamed.K != mem.K {
		t.Fatalf("streamed k=%d, in-memory k=%d", streamed.K, mem.K)
	}
	for i := range mem.Centers {
		for d := range mem.Centers[i] {
			if math.Abs(mem.Centers[i][d]-streamed.Centers[i][d]) > 1e-9 {
				t.Fatalf("center %d differs: %v vs %v", i, mem.Centers[i], streamed.Centers[i])
			}
		}
	}
	if streamed.Assignment != nil {
		t.Error("streaming source produced an assignment without the points in memory")
	}
	if len(mem.Assignment) != len(ds.Points) {
		t.Errorf("in-memory assignment length %d", len(mem.Assignment))
	}
}

// TestFromMixtureStreams runs MR G-means over a generated mixture that is
// never materialized.
func TestFromMixtureStreams(t *testing.T) {
	c, err := New(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), FromMixture(DatasetSpec{
		K: 4, Dim: 2, N: 5000, MinSeparation: 30, Seed: 17,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 3 || res.K > 8 {
		t.Errorf("k = %d for true k=4", res.K)
	}
	if res.Assignment != nil {
		t.Error("mixture stream produced an assignment")
	}
	if res.Counters[CounterDatasetReads] == 0 {
		t.Error("dataset reads not accounted")
	}
}

// TestSourceValidation: NaN/±Inf and ragged points must be rejected with a
// descriptive error on every ingestion path.
func TestSourceValidation(t *testing.T) {
	run := func(src DataSource) error {
		c, err := New()
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run(context.Background(), src)
		return err
	}
	if err := run(FromPoints([]Point{{1, 2}, {math.NaN(), 3}})); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("NaN accepted in-memory: %v", err)
	}
	if err := run(FromPoints([]Point{{1, 2}, {math.Inf(1), 3}})); err == nil || !strings.Contains(err.Error(), "Inf") {
		t.Errorf("+Inf accepted in-memory: %v", err)
	}
	if err := run(FromPoints([]Point{{1, 2}, {3}})); err == nil || !strings.Contains(err.Error(), "dimensions") {
		t.Errorf("ragged input accepted: %v", err)
	}
	if err := run(FromReader(strings.NewReader("1,2\nNaN,3\n"))); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("NaN accepted via CSV: %v", err)
	}
	if err := run(FromReader(strings.NewReader("1\t2\n+Inf\t3\n"))); err == nil || !strings.Contains(err.Error(), "Inf") {
		t.Errorf("+Inf accepted via TSV: %v", err)
	}
	if err := run(FromPoints(nil)); err == nil {
		t.Error("empty source accepted")
	}
	// The seq algorithms share the same validation via Materialize.
	c, err := New(WithAlgorithm(AlgorithmSeqGMeans))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), FromPoints([]Point{{1, 2}, {math.NaN(), 3}})); err == nil {
		t.Error("NaN accepted by seq-gmeans path")
	}
}

// TestOptionValidation: invalid options surface from New, including the
// MergeRadius rule (negative values other than MergeAuto are rejected).
func TestOptionValidation(t *testing.T) {
	bad := [][]Option{
		{WithMergeRadius(-0.5)},
		{WithMergeRadius(math.NaN())},
		{WithAlgorithm("quantum-means")},
		{WithAlpha(1.5)},
		{WithAlpha(-0.1)},
		{WithNodes(0)},
		{WithKRange(3, 2, 1)},
		{WithKRange(0, 5, 1)},
		{WithCriterion("vibes")},
		{WithSplitSize(-1)},
		{WithMultiKIterations(0)},
	}
	for i, opts := range bad {
		if _, err := New(opts...); err == nil {
			t.Errorf("option set %d accepted", i)
		}
	}
	if _, err := New(WithMergeRadius(MergeAuto)); err != nil {
		t.Errorf("MergeAuto rejected: %v", err)
	}
	if _, err := New(WithMergeRadius(2.5)); err != nil {
		t.Errorf("positive merge radius rejected: %v", err)
	}
}

// TestMultiKCriteria checks every selection criterion picks the right k on
// an easy, well-separated workload, and pins selectK's I/O: the criteria
// beyond elbow read the staged points back in exactly one more dataset
// read than elbow pays on the same data.
func TestMultiKCriteria(t *testing.T) {
	ds := mixturePoints(t, 3, 2, 1200, 36)
	run := func(t *testing.T, cr Criterion) *Result {
		t.Helper()
		c, err := New(
			WithAlgorithm(AlgorithmMultiK),
			WithKRange(1, 6, 1),
			WithCriterion(cr),
			WithSeed(2),
		)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(context.Background(), FromPoints(ds.Points))
		if err != nil {
			t.Fatal(err)
		}
		if res.K != 3 {
			t.Errorf("criterion %s selected k=%d, want 3", cr, res.K)
		}
		return res
	}
	t.Run(string(CriterionElbow), func(t *testing.T) { run(t, CriterionElbow) })
	for _, cr := range []Criterion{CriterionJump, CriterionSilhouette, CriterionBIC} {
		t.Run(string(cr), func(t *testing.T) {
			reads := run(t, cr).Counters[CounterDatasetReads]
			elbowReads := run(t, CriterionElbow).Counters[CounterDatasetReads]
			if reads != elbowReads+1 {
				t.Errorf("criterion %s: %d dataset reads, want elbow's %d + 1", cr, reads, elbowReads)
			}
		})
	}
}

// TestMaterialize covers the helper's parsing paths: headers, comments,
// blank lines and mixed separators.
func TestMaterialize(t *testing.T) {
	in := "# generated by datagen\ncol_a,col_b\n1.5, 2.5\n\n3\t4\n5 6\n"
	pts, err := Materialize(FromReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []Point{{1.5, 2.5}, {3, 4}, {5, 6}}
	if len(pts) != len(want) {
		t.Fatalf("got %d points, want %d", len(pts), len(want))
	}
	for i := range want {
		if !vec.Equal(pts[i], want[i]) {
			t.Errorf("point %d = %v, want %v", i, pts[i], want[i])
		}
	}
	// A corrupt first data row with numeric fields is NOT a header and
	// must error rather than be silently dropped.
	if _, err := Materialize(FromReader(strings.NewReader("1.x 2.0\n3 4\n"))); err == nil {
		t.Error("corrupt numeric first row swallowed as header")
	}
	// One-shot reader sources refuse a second Open.
	src := FromReader(strings.NewReader("1 2\n"))
	if _, err := Materialize(src); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Open(); err == nil {
		t.Error("second Open of a FromReader source succeeded")
	}
}
