package main

import (
	"context"
	"fmt"
	"math"

	"gmeansmr"
	"gmeansmr/internal/invariants"
	"gmeansmr/internal/vec"
)

// datasetReport is a training workload's outcome on one dataset.
type datasetReport struct {
	Dataset  int     `json:"dataset"`
	K        int     `json:"k"`
	KError   float64 `json:"k_error"`
	MeanDist float64 `json:"mean_dist"`
	Digest   string  `json:"digest"`
}

// evaluate checks a child's outputs and turns them into the workload's
// report: end-to-end metrics for an untraced run, per-layer metrics for a
// traced one.
func evaluate(w workload, opts runOpts, dir string, res *childResult) *workloadReport {
	wr := &workloadReport{
		Workload:  w.Name,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Checks:    res.Checks,
		Metrics:   map[string]metricValue{},
		Samples:   map[string]Summary{},
	}
	var e2e map[string]float64
	if w.Train != nil {
		e2e = evaluateTraining(wr, w, opts, dir, res)
	} else if res.Serve != nil {
		e2e = res.Serve.Metrics
		wr.Samples = res.Serve.Samples
	}
	if e2e != nil {
		// Times in reference seconds; the samples stay as measured.
		wr.Slowdown = slowdown(res.Calibration)
		e2e["setup_s"] /= wr.Slowdown
		e2e["op_p50_ms"] /= wr.Slowdown
		e2e["points_per_s"] *= wr.Slowdown
		e2e["peak_rss_mb"] = float64(res.MaxRSSKiB+res.ChildrenMaxRSSKiB) / 1024
		if len(res.Calibration) > 0 {
			wr.Samples["calibration_s"] = summarize(res.Calibration)
		}
	}
	if opts.Trace {
		for _, d := range perLayer {
			wr.Metrics[d.Name] = metricValue{Value: finite(res.Layers[d.Name]), Unit: d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			v, ok := e2e[d.Name]
			if !ok || math.IsNaN(v) {
				wr.check("metric %s was not measured", d.Name)
			}
			wr.Metrics[d.Name] = metricValue{Value: finite(v), Unit: d.Unit}
		}
	}
	finiteSummaries(wr.Samples)
	wr.Correct = wr.Failed == 0 && len(wr.Checks) == 0
	return wr
}

// check records a failed correctness check of the parent.
func (wr *workloadReport) check(format string, args ...any) {
	wr.Checks = append(wr.Checks, fmt.Sprintf(format, args...))
	wr.Attempted++
	wr.Failed++
}

// evaluateTraining checks every dataset's result against the invariants
// and the dataset's points, checks a proc-backend result against the
// local backend, and derives the end-to-end metrics from the Runs.
func evaluateTraining(wr *workloadReport, w workload, opts runOpts, dir string, res *childResult) map[string]float64 {
	t := w.Train
	for _, f := range res.Fits {
		for _, v := range f.NonFinite {
			wr.check("dataset %d: %s", f.Dataset, v)
		}
		if len(f.NonFinite) > 0 {
			continue
		}
		pts, err := loadPoints(datasetPath(dir, f.Dataset))
		if err != nil {
			wr.check("dataset %d: %v", f.Dataset, err)
			continue
		}
		maxK := 0
		if t.MultiK {
			maxK = t.KMax
		}
		var vs []invariants.Violation
		vs = append(vs, invariants.CheckCentersInBounds(pts, f.Centers)...)
		vs = append(vs, invariants.CheckKRange(f.K, maxK, len(f.Centers))...)
		vs = append(vs, invariants.CheckCountersNonNegative(f.Counters)...)
		for _, v := range vs {
			wr.check("dataset %d: %s", f.Dataset, v)
		}
		// The mixtures are well separated, so a G-means k off by a factor
		// of two means the algorithm broke, not that it was unlucky. The
		// elbow criterion of the multi-k baseline carries no such promise.
		if !t.MultiK && (f.K < t.K/2 || f.K > 2*t.K) {
			wr.check("dataset %d: discovered k=%d, true k=%d", f.Dataset, f.K, t.K)
		}
		wr.Datasets = append(wr.Datasets, datasetReport{
			Dataset:  f.Dataset,
			K:        f.K,
			KError:   math.Abs(float64(f.K-t.K)) / float64(t.K),
			MeanDist: meanNearestDist(pts, f.Centers),
			Digest:   f.Digest,
		})
	}
	if len(res.Fits) == 0 {
		wr.check("no dataset produced a result")
	}
	if t.Backend == gmeansmr.BackendProc && len(res.Fits) > 0 {
		checkAgainstLocal(wr, t, opts, dir, res.Fits[0])
	}
	if opts.Trace {
		if len(wr.Datasets) > 0 {
			res.Layers["core.k_error"] = wr.Datasets[0].KError
			res.Layers["core.mean_dist"] = wr.Datasets[0].MeanDist
		}
		return nil
	}

	var walls, setups, trains []float64
	for _, r := range res.Runs {
		if r.Err != "" {
			walls = append(walls, math.Inf(1))
			continue
		}
		walls = append(walls, 1e3*r.WallS)
		setups = append(setups, r.SetupS)
		trains = append(trains, r.WallS-r.SetupS)
	}
	op := summarize(walls)
	wr.Samples["op_ms"] = op
	wr.Samples["setup_s"] = summarize(setups)
	wr.Samples["train_s"] = summarize(trains)
	return map[string]float64{
		"setup_s":      median(setups),
		"op_p50_ms":    op.Median,
		"points_per_s": float64(t.N) / median(trains),
	}
}

// checkAgainstLocal reruns dataset 0 on the local backend and requires
// the proc backend's result to be bit-identical to it.
func checkAgainstLocal(wr *workloadReport, t *trainSpec, opts runOpts, dir string, proc fitResult) {
	c, err := gmeansmr.New(trainOptions(t, opts.Seed, gmeansmr.BackendLocal)...)
	if err != nil {
		wr.check("local reference: %v", err)
		return
	}
	res, err := c.Run(context.Background(), gmeansmr.FromFile(datasetPath(dir, proc.Dataset)))
	if err != nil {
		wr.check("local reference: %v", err)
		return
	}
	if d := resultDigest(res.Centers, res.Counters); d != proc.Digest {
		wr.check("dataset %d: proc digest %s differs from local digest %s", proc.Dataset, proc.Digest, d)
	}
}

// checkCrossWorkload requires gmeans-local and gmeans-proc, run in the
// same invocation, to agree bit for bit on every dataset both report.
func checkCrossWorkload(rep *report) {
	digests := map[string]map[int]string{}
	for _, w := range rep.Workloads {
		m := map[int]string{}
		for _, d := range w.Datasets {
			m[d.Dataset] = d.Digest
		}
		digests[w.Workload] = m
	}
	for ds, local := range digests["gmeans-local"] {
		if proc, ok := digests["gmeans-proc"][ds]; ok && proc != local {
			rep.Checks = append(rep.Checks, fmt.Sprintf("dataset %d: gmeans-proc digest %s differs from gmeans-local %s", ds, proc, local))
		}
	}
}

// meanNearestDist is the mean Euclidean distance from each point to its
// nearest center: the quality measure of the paper's Table 3.
func meanNearestDist(pts, centers []vec.Vector) float64 {
	var sum float64
	for _, p := range pts {
		_, d2 := vec.NearestIndex(p, centers)
		sum += math.Sqrt(d2)
	}
	return sum / float64(len(pts))
}
