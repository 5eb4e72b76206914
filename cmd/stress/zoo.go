// The -zoo mode: sweep the adversarial dataset catalog (internal/zoo)
// across the k-discovery algorithms, asserting algorithm-agnostic
// invariants (internal/invariants) instead of golden outputs, then run the
// concurrency-abuse soaks (assign-under-reload, cancellation storm, racing
// FS mutation). A failing cell prints the dataset descriptor JSON and seed,
// so it reproduces locally with the same flags.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gmeansmr"
	"gmeansmr/internal/core"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/invariants"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/model"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/serve"
	"gmeansmr/internal/vec"
	"gmeansmr/internal/zoo"
)

// zooMaxK is the k cap every zoo run is configured with — small enough
// that hostile data hitting the cap is cheap, large enough that every
// cell's nominal k fits.
const zooMaxK = 12

// zooCellTimeout bounds one matrix cell; the datasets are small, so a
// cell anywhere near this is a hang.
const zooCellTimeout = 2 * time.Minute

// zooAlgo is one column of the zoo matrix.
type zooAlgo struct {
	name string
	// skip returns a non-empty reason when the cell/algorithm combination
	// is undefined (not a failure).
	skip func(c zoo.Cell) string
	run  func(c zoo.Cell, seed int64) ([]invariants.Violation, error)
}

func runZoo(cellsSel, algosSel, soaksSel string, seed int64, verbose bool) {
	// "none" empties a dimension: -cells none -soaks reload runs one soak
	// on its own, the exact reproduce line a soak failure prints.
	var cells []zoo.Cell
	var algos []zooAlgo
	var soaks []zooSoak
	var err error
	if cellsSel != "none" {
		if cells, err = pick(zoo.Catalog(), cellsSel, func(c zoo.Cell) string { return c.Name }); err != nil {
			log.Fatal(err)
		}
		if algos, err = pick(zooAlgos(), algosSel, func(a zooAlgo) string { return a.name }); err != nil {
			log.Fatal(err)
		}
	}
	if soaksSel != "none" {
		if soaks, err = pick(zooSoaks(), soaksSel, func(s zooSoak) string { return s.name }); err != nil {
			log.Fatal(err)
		}
	}

	failures, ran := 0, 0
	for _, c := range cells {
		for _, a := range algos {
			cell := fmt.Sprintf("%s × %s", c.Name, a.name)
			if a.skip != nil {
				if reason := a.skip(c); reason != "" {
					if verbose {
						log.Printf("  skip %s: %s", cell, reason)
					}
					continue
				}
			}
			ran++
			start := time.Now()
			vs, err := a.run(c, seed)
			if err != nil {
				vs = append(vs, invariants.Violation{Invariant: "run", Detail: err.Error()})
			}
			if len(vs) > 0 {
				failures++
				log.Printf("FAIL %s (%.1fs):\n%s", cell, time.Since(start).Seconds(), invariants.Format(vs))
				log.Printf("  reproduce: stress -zoo -cells %s -algos %s -seed %d", c.Name, a.name, seed)
				log.Printf("  dataset: %s", c.Descriptor(seed))
				continue
			}
			fmt.Printf("PASS %s (%.1fs)\n", cell, time.Since(start).Seconds())
		}
	}

	for _, s := range soaks {
		ran++
		start := time.Now()
		if err := s.run(seed, verbose); err != nil {
			failures++
			log.Printf("FAIL soak %s (%.1fs): %v", s.name, time.Since(start).Seconds(), err)
			log.Printf("  reproduce: stress -zoo -cells none -soaks %s -seed %d", s.name, seed)
			continue
		}
		fmt.Printf("PASS soak %s (%.1fs)\n", s.name, time.Since(start).Seconds())
	}

	if failures > 0 {
		log.Fatalf("%d of %d zoo cells failed", failures, ran)
	}
	fmt.Printf("all %d zoo cells passed\n", ran)
}

// ---- the matrix columns ------------------------------------------------

func zooAlgos() []zooAlgo {
	return []zooAlgo{
		{name: "gmeans-mr", run: facadeRunner(gmeansmr.AlgorithmGMeansMR)},
		{name: "seq-gmeans", run: facadeRunner(gmeansmr.AlgorithmSeqGMeans)},
		{name: "xmeans", run: facadeRunner(gmeansmr.AlgorithmXMeans)},
		{
			name: "multik",
			// The elbow criterion needs three candidate k values and the
			// sweep is clamped to n, so n<3 has no defined answer.
			skip: func(c zoo.Cell) string {
				if c.N < 3 {
					return "multi-k needs at least 3 points for the elbow criterion"
				}
				return ""
			},
			run: facadeRunner(gmeansmr.AlgorithmMultiK),
		},
		{name: "gmeans-pca", run: runCorePCA},
		{name: "kmeans-rounds", run: runKMeansRounds},
	}
}

// facadeRunner checks a public-API run: k range, finite in-bounds centers,
// exactly-once assignment, non-negative counters.
func facadeRunner(algo gmeansmr.Algorithm) func(zoo.Cell, int64) ([]invariants.Violation, error) {
	return func(c zoo.Cell, seed int64) ([]invariants.Violation, error) {
		opts := []gmeansmr.Option{
			gmeansmr.WithAlgorithm(algo),
			gmeansmr.WithSeed(seed),
			gmeansmr.WithMaxK(zooMaxK),
		}
		if algo == gmeansmr.AlgorithmMultiK {
			kmax := 8
			if kmax > c.N {
				kmax = c.N
			}
			opts = append(opts, gmeansmr.WithKRange(1, kmax, 1))
		}
		cl, err := gmeansmr.New(opts...)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), zooCellTimeout)
		defer cancel()
		points := c.Points(seed)
		res, err := cl.Run(ctx, gmeansmr.FromPoints(points))
		if err != nil {
			return nil, err
		}

		var vs []invariants.Violation
		vs = append(vs, invariants.CheckKRange(res.K, zooMaxK, len(res.Centers))...)
		vs = append(vs, invariants.CheckCentersFinite(res.Centers)...)
		vs = append(vs, invariants.CheckCentersInBounds(points, res.Centers)...)
		switch algo {
		case gmeansmr.AlgorithmGMeansMR, gmeansmr.AlgorithmMultiK:
			// These paths compute the assignment as a final nearest-center
			// pass, so optimality is part of the contract.
			vs = append(vs, invariants.CheckAssignmentNearest(points, res.Centers, res.Assignment)...)
		default:
			vs = append(vs, invariants.CheckAssignment(len(points), res.K, res.Assignment)...)
		}
		vs = append(vs, invariants.CheckCountersNonNegative(res.Counters)...)
		return vs, nil
	}
}

// stageZoo writes a cell into a fresh DFS.
func stageZoo(c zoo.Cell, seed int64) (kmeansmr.Env, *dfs.FS) {
	fs := dfs.New(16 << 10)
	w := fs.Writer("/zoo/points.txt")
	for _, p := range c.Points(seed) {
		w.WriteString(dataset.FormatPoint(p))
		w.WriteString("\n")
	}
	w.Close()
	cluster := mr.DefaultCluster().WithNodes(2)
	return kmeansmr.Env{FS: fs, Cluster: cluster, Input: "/zoo/points.txt", Dim: c.Dim}, fs
}

// checkKernel asserts the training kernel's contract on the cell's own
// points: for every point, the batched dim-major vec.NearestBatch (what
// every point mapper runs) returns the same center index and the same
// distance bits as the scalar vec.NearestIndex.
func checkKernel(points [][]float64, centers []vec.Vector) []invariants.Violation {
	n := len(points)
	if n == 0 {
		return nil
	}
	dim := len(points[0])
	flat := make([]float64, n*dim)
	for j, p := range points {
		for d, x := range p {
			flat[d*n+j] = x
		}
	}
	idx := make([]int32, n)
	dist := make([]float64, n)
	vec.NearestBatch(centers, flat, n, idx, dist, nil)
	for j, p := range points {
		wi, wd := vec.NearestIndex(p, centers)
		if int(idx[j]) != wi || math.Float64bits(dist[j]) != math.Float64bits(wd) {
			return []invariants.Violation{{Invariant: "kernel-batch-vs-scalar",
				Detail: fmt.Sprintf("point %d: NearestBatch (%d, %x), NearestIndex (%d, %x)",
					j, idx[j], math.Float64bits(dist[j]), wi, math.Float64bits(wd))}}
		}
	}
	return nil
}

// runCorePCA drives the core engine directly — the principal-component
// children its last k-means pass places are the path most sensitive to
// degenerate geometry (collinear, d=1, point-mass clusters) — and asserts
// the DFS read-conservation law and the batch kernel's agreement with the
// scalar one on top of the result invariants.
func runCorePCA(c zoo.Cell, seed int64) ([]invariants.Violation, error) {
	ctx, cancel := context.WithTimeout(context.Background(), zooCellTimeout)
	defer cancel()
	env, fs := stageZoo(c, seed)
	res, err := core.RunContext(ctx, core.Config{Env: env, Seed: seed, MaxK: zooMaxK})
	if err != nil {
		return nil, err
	}
	size, err := fs.Size(env.Input)
	if err != nil {
		return nil, err
	}

	points := c.Points(seed)
	vs := invariants.CheckReadConservation(fs.DatasetReads(), fs.BytesRead(), size)
	vs = append(vs, invariants.CheckKRange(res.K, zooMaxK, len(res.Centers))...)
	vs = append(vs, invariants.CheckCentersFinite(toPoints(res.Centers))...)
	vs = append(vs, invariants.CheckCentersInBounds(points, toPoints(res.Centers))...)
	vs = append(vs, checkKernel(points, res.Centers)...)
	return vs, nil
}

// runKMeansRounds chains plain MR k-means iterations over the cell and
// asserts Lloyd's guarantee — WCSS never increases across rounds — plus
// exactly-once assignment at the MR level (cluster sizes summing to n) and
// the batch kernel's agreement with the scalar one against the final
// centers.
func runKMeansRounds(c zoo.Cell, seed int64) ([]invariants.Violation, error) {
	const rounds = 6
	k := 3
	if k > c.N {
		k = c.N
	}
	points := c.Points(seed)

	env, _ := stageZoo(c, seed)
	centers, err := kmeansmr.SampleUpTo(env, k, seed)
	if err != nil {
		return nil, err
	}
	var trajectory [][][]float64
	var sizes [][]int64
	for r := 0; r < rounds; r++ {
		it, err := kmeansmr.Iterate(env, centers)
		if err != nil {
			return nil, err
		}
		centers = it.Centers
		trajectory = append(trajectory, toPoints(it.Centers))
		sizes = append(sizes, it.Sizes)
	}

	vs := invariants.CheckWCSSDescent(points, trajectory, 1e-9)
	for r := range trajectory {
		total := int64(0)
		for _, s := range sizes[r] {
			total += s
		}
		if total != int64(c.N) {
			vs = append(vs, invariants.Violation{Invariant: "assignment",
				Detail: fmt.Sprintf("round %d: cluster sizes sum to %d, dataset has %d points", r, total, c.N)})
		}
		vs = append(vs, invariants.CheckCentersFinite(trajectory[r])...)
	}
	vs = append(vs, checkKernel(points, centers)...)
	return vs, nil
}

func toPoints(centers []vec.Vector) [][]float64 {
	out := make([][]float64, len(centers))
	for i, c := range centers {
		out[i] = c
	}
	return out
}

// ---- concurrency-abuse soaks -------------------------------------------

type zooSoak struct {
	name string
	run  func(seed int64, verbose bool) error
}

func zooSoaks() []zooSoak {
	return []zooSoak{
		{name: "reload", run: soakAssignUnderReload},
		{name: "cancel", run: soakCancellationStorm},
		{name: "fsrace", run: soakFSRace},
	}
}

// soakAssignUnderReload hammers the assignment server in both wire
// framings while hot-swapping between models trained on two zoo cells,
// then quiesces and asserts JSON, binary and programmatic answers are
// digest-identical.
func soakAssignUnderReload(seed int64, verbose bool) error {
	baseline := runtime.NumGoroutine()
	train := func(cellName string) (*model.Model, error) {
		c, ok := zoo.Find(cellName)
		if !ok {
			return nil, fmt.Errorf("zoo cell %q missing", cellName)
		}
		cl, err := gmeansmr.New(gmeansmr.WithSeed(seed), gmeansmr.WithMaxK(zooMaxK))
		if err != nil {
			return nil, err
		}
		res, err := cl.Run(context.Background(), c.Source(seed))
		if err != nil {
			return nil, err
		}
		centers := make([]vec.Vector, len(res.Centers))
		for i, p := range res.Centers {
			centers[i] = vec.Vector(p)
		}
		return model.New(centers, model.Meta{Algorithm: "zoo-" + cellName})
	}
	// Both dim-2 cells, so probes fit either model.
	mA, err := train("overlap-twins")
	if err != nil {
		return err
	}
	mB, err := train("heavy-tail")
	if err != nil {
		return err
	}
	maxK := mA.K
	if mB.K > maxK {
		maxK = mB.K
	}

	var flip atomic.Bool
	srv, err := serve.New(mA, serve.Options{Loader: func() (*model.Model, error) {
		if flip.Load() {
			return mB, nil
		}
		return mA, nil
	}})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(seed))
	probes := make([]vec.Vector, 32)
	for i := range probes {
		probes[i] = vec.Vector{rng.NormFloat64() * 20, rng.NormFloat64() * 20}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan error, 4)
	flunk := func(err error) {
		select {
		case fail <- err:
		default:
		}
		stop.Store(true)
	}

	// The reloader: alternate models through the public reload endpoint.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for n := 0; n < 200 && !stop.Load(); n++ {
			flip.Store(n%2 == 1)
			resp, err := ts.Client().Post(ts.URL+"/v1/model/reload", "", nil)
			if err != nil {
				flunk(fmt.Errorf("reload: %w", err))
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				flunk(fmt.Errorf("reload status %d", resp.StatusCode))
				return
			}
		}
	}()

	// Hammers: every response must be well-formed for SOME model — cluster
	// within [0, maxK), finite distance — regardless of swap timing.
	for h := 0; h < 3; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := probes[(i+h)%len(probes)]
				var asgs []serve.Assignment
				var err error
				if (i+h)%2 == 0 {
					asgs, err = assignJSON(ts, []vec.Vector{p})
				} else {
					asgs, err = assignBinary(ts, []vec.Vector{p})
				}
				if err != nil {
					flunk(err)
					return
				}
				for _, a := range asgs {
					if a.Cluster < 0 || a.Cluster >= maxK || math.IsNaN(a.Distance) || math.IsInf(a.Distance, 0) {
						flunk(fmt.Errorf("torn response under reload: %+v", a))
						return
					}
				}
			}
		}(h)
	}
	wg.Wait()
	select {
	case err := <-fail:
		return err
	default:
	}

	// Quiesce on model A and assert the cross-framing digest identity.
	flip.Store(false)
	if resp, err := ts.Client().Post(ts.URL+"/v1/model/reload", "", nil); err != nil {
		return err
	} else {
		resp.Body.Close()
	}
	js, err := assignJSON(ts, probes)
	if err != nil {
		return err
	}
	bin, err := assignBinary(ts, probes)
	if err != nil {
		return err
	}
	prog := make([]serve.Assignment, len(probes))
	for i, p := range probes {
		ci, d2 := vec.NearestIndex(p, mA.Centers)
		prog[i] = serve.Assignment{Cluster: ci, Distance: math.Sqrt(d2)}
	}
	dj, db, dp := digestAssigns(js), digestAssigns(bin), digestAssigns(prog)
	if dj != db || dj != dp {
		return fmt.Errorf("serve digests diverge: json=%s binary=%s programmatic=%s", dj, db, dp)
	}
	ts.Close()
	return checkGoroutines(baseline)
}

func digestAssigns(asgs []serve.Assignment) string {
	clusters := make([]int, len(asgs))
	dists := make([]float64, len(asgs))
	for i, a := range asgs {
		clusters[i], dists[i] = a.Cluster, a.Distance
	}
	return invariants.DigestAssignments(clusters, dists)
}

func assignJSON(ts *httptest.Server, points []vec.Vector) ([]serve.Assignment, error) {
	body, _ := json.Marshal(struct {
		Points []vec.Vector `json:"points"`
	}{points})
	resp, err := ts.Client().Post(ts.URL+"/v1/assign/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Assignments []serve.Assignment `json:"assignments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("assign json decode: %w", err)
	}
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("assign json status %d", resp.StatusCode)
	}
	if len(out.Assignments) != len(points) {
		return nil, fmt.Errorf("assign json: %d answers for %d points", len(out.Assignments), len(points))
	}
	return out.Assignments, nil
}

func assignBinary(ts *httptest.Server, points []vec.Vector) ([]serve.Assignment, error) {
	body := dfs.BinaryHeader(len(points[0]))
	for _, p := range points {
		body = dfs.AppendBinaryPoint(body, p)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/assign/batch", "application/x-gmpb", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("assign binary status %d: %s", resp.StatusCode, buf.String())
	}
	raw := buf.Bytes()
	if _, err := serve.ParseAssignHeader(raw); err != nil {
		return nil, err
	}
	frames := raw[serve.AssignHeaderLen:]
	if len(frames)%serve.AssignFrameLen != 0 {
		return nil, fmt.Errorf("assign binary: ragged body of %d bytes", len(frames))
	}
	out := make([]serve.Assignment, 0, len(frames)/serve.AssignFrameLen)
	for off := 0; off < len(frames); off += serve.AssignFrameLen {
		out = append(out, serve.DecodeAssignFrame(frames[off:off+serve.AssignFrameLen]))
	}
	if len(out) != len(points) {
		return nil, fmt.Errorf("assign binary: %d answers for %d points", len(out), len(points))
	}
	return out, nil
}

// soakCancellationStorm starts full facade runs and cancels them at random
// times: every run must either complete or fail with the context's error —
// no hangs, no untyped errors, no leaked goroutines.
func soakCancellationStorm(seed int64, verbose bool) error {
	baseline := runtime.NumGoroutine()
	c, ok := zoo.Find("single-cluster")
	if !ok {
		return fmt.Errorf("zoo cell single-cluster missing")
	}
	points := c.Points(seed)
	rng := rand.New(rand.NewSource(seed))
	completed, cancelled := 0, 0
	for i := 0; i < 40; i++ {
		cl, err := gmeansmr.New(gmeansmr.WithSeed(seed), gmeansmr.WithMaxK(zooMaxK))
		if err != nil {
			return err
		}
		// Deadlines from "already expired" to "run finishes first".
		ctx, cancel := context.WithTimeout(context.Background(),
			time.Duration(rng.Intn(30_000))*time.Microsecond)
		_, err = cl.Run(ctx, gmeansmr.FromPoints(points))
		cancel()
		switch {
		case err == nil:
			completed++
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			cancelled++
		default:
			return fmt.Errorf("storm run %d: untyped error under cancellation: %v", i, err)
		}
	}
	if verbose {
		log.Printf("  cancel storm: %d completed, %d cancelled", completed, cancelled)
	}
	if cancelled == 0 {
		return fmt.Errorf("storm never cancelled a run; deadlines too long to exercise the path")
	}
	return checkGoroutines(baseline)
}

// soakFSRace races Create/Delete/SetSplitSize against running k-means
// iterations on the same FS. The dataset file itself is never touched, so
// every iteration must keep succeeding with finite centers; the rest is
// -race's job.
func soakFSRace(seed int64, verbose bool) error {
	baseline := runtime.NumGoroutine()
	c, ok := zoo.Find("skew-sizes")
	if !ok {
		return fmt.Errorf("zoo cell skew-sizes missing")
	}
	env, fs := stageZoo(c, seed)
	centers, err := kmeansmr.SampleUpTo(env, 3, seed)
	if err != nil {
		return err
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; !stop.Load(); i++ {
				switch w {
				case 0:
					fs.Create(fmt.Sprintf("/scratch/%d", i%8), []byte("x"))
				case 1:
					fs.Delete(fmt.Sprintf("/scratch/%d", rng.Intn(8)))
				case 2:
					fs.SetSplitSize(8<<10 + rng.Intn(16)<<10)
				}
			}
		}(w)
	}

	var iterErr error
	for r := 0; r < 25; r++ {
		it, err := kmeansmr.Iterate(env, centers)
		if err != nil {
			iterErr = fmt.Errorf("iteration %d under FS races: %v", r, err)
			break
		}
		centers = it.Centers
		if vs := invariants.CheckCentersFinite(toPoints(centers)); len(vs) > 0 {
			iterErr = fmt.Errorf("iteration %d under FS races: %s", r, invariants.Format(vs))
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if iterErr != nil {
		return iterErr
	}
	return checkGoroutines(baseline)
}
