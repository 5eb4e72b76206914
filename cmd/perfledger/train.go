package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"gmeansmr"
	"gmeansmr/internal/invariants"
)

// runSample is one measured Run of a training workload.
type runSample struct {
	Dataset int     `json:"dataset"`
	WallS   float64 `json:"wall_s"`
	SetupS  float64 `json:"setup_s"`
	Digest  string  `json:"digest,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// fitResult is what a training workload produced on one dataset: the
// output of the dataset's first Run, which every later Run on it must
// reproduce bit for bit.
type fitResult struct {
	Dataset   int                    `json:"dataset"`
	K         int                    `json:"k"`
	Centers   [][]float64            `json:"centers"`
	Counters  map[string]int64       `json:"counters"`
	Digest    string                 `json:"digest"`
	NonFinite []invariants.Violation `json:"nonfinite,omitempty"`
}

// eofSource wraps a DataSource and stamps the moment its reader first
// reports io.EOF. The facade stages its input by reading the source once
// per Run, so the stamp marks the end of staging.
type eofSource struct {
	src gmeansmr.DataSource
	eof time.Time
}

func (s *eofSource) Open() (gmeansmr.PointReader, error) {
	rd, err := s.src.Open()
	if err != nil {
		return nil, err
	}
	return &eofReader{PointReader: rd, s: s}, nil
}

type eofReader struct {
	gmeansmr.PointReader
	s *eofSource
}

func (r *eofReader) Next() (gmeansmr.Point, error) {
	p, err := r.PointReader.Next()
	if err == io.EOF && r.s.eof.IsZero() {
		r.s.eof = time.Now()
	}
	return p, err
}

// timedRun runs c over the GMPB file at path and returns the result, the
// Run's wall time and its staging share.
func timedRun(ctx context.Context, c *gmeansmr.Clusterer, path string) (*gmeansmr.Result, time.Duration, time.Duration, error) {
	src := &eofSource{src: gmeansmr.FromFile(path)}
	start := time.Now()
	res, err := c.Run(ctx, src)
	wall := time.Since(start)
	var setup time.Duration
	if !src.eof.IsZero() {
		setup = src.eof.Sub(start)
	}
	return res, wall, setup, err
}

// resultDigest is the bit-exact identity of a run's centers and counters.
func resultDigest(centers [][]float64, counters map[string]int64) string {
	return invariants.Digest(centers, nil, counters)
}

func newFit(ds int, res *gmeansmr.Result) *fitResult {
	f := &fitResult{Dataset: ds, K: res.K, Counters: res.Counters, Digest: resultDigest(res.Centers, res.Counters)}
	// Non-finite coordinates cannot travel as JSON; report them instead.
	if f.NonFinite = invariants.CheckCentersFinite(res.Centers); len(f.NonFinite) == 0 {
		f.Centers = res.Centers
	}
	return f
}

// facadeRunner runs the Runs of a training workload through the facade
// and checks each Run's result against the first Run on its dataset.
type facadeRunner struct {
	c     *gmeansmr.Clusterer
	files []string
	fits  []*fitResult
	out   *childResult
}

// newFacadeRunner builds the workload's Clusterer and makes one
// unmeasured warm-up Run on dataset 0, which fills the process's caches
// and heap and fixes the dataset's reference result. It reports failures
// into out.
func newFacadeRunner(ctx context.Context, t *trainSpec, seed int64, files []string, out *childResult) (*facadeRunner, bool) {
	c, err := gmeansmr.New(trainOptions(t, seed, t.Backend)...)
	if err != nil {
		out.fail("options: %v", err)
		return nil, false
	}
	fr := &facadeRunner{c: c, files: files, fits: make([]*fitResult, len(files)), out: out}
	runtime.GC()
	res, _, _, err := timedRun(ctx, c, files[0])
	if err != nil {
		out.fail("warm-up run: %v", err)
		return nil, false
	}
	fr.fits[0] = newFit(0, res)
	return fr, true
}

// run makes one measured Run on dataset ds, after a forced GC that keeps
// the previous Run's garbage out of its time, and records it.
func (fr *facadeRunner) run(ctx context.Context, ds int) (runSample, bool) {
	runtime.GC()
	res, wall, setup, err := timedRun(ctx, fr.c, fr.files[ds])
	s := runSample{Dataset: ds, WallS: wall.Seconds(), SetupS: setup.Seconds()}
	fr.out.Attempted++
	if err == nil {
		s.Digest = resultDigest(res.Centers, res.Counters)
		if fr.fits[ds] == nil {
			fr.fits[ds] = newFit(ds, res)
		}
		if s.Digest != fr.fits[ds].Digest {
			err = fmt.Errorf("digest %s differs from the dataset's first run %s", s.Digest, fr.fits[ds].Digest)
		}
	}
	if err != nil {
		s.Err = err.Error()
		fr.out.Failed++
		fr.out.Checks = append(fr.out.Checks, fmt.Sprintf("run on dataset %d: %v", ds, err))
	}
	fr.out.Runs = append(fr.out.Runs, s)
	return s, err == nil
}

// fitList returns the reference result of every dataset that ran.
func (fr *facadeRunner) fitList() []fitResult {
	var out []fitResult
	for _, f := range fr.fits {
		if f != nil {
			out = append(out, *f)
		}
	}
	return out
}

// measureTraining is the untraced measurement of a training workload:
// after the warm-up, Runs cycle through the datasets until dur has passed
// and every dataset ran at least once. pause, when non-nil, is called
// after each Run, outside its time.
func measureTraining(ctx context.Context, t *trainSpec, files []string, seed int64, dur time.Duration, pause func()) *childResult {
	out := &childResult{}
	fr, ok := newFacadeRunner(ctx, t, seed, files, out)
	if !ok {
		return out
	}
	deadline := time.Now().Add(dur)
	for i := 0; i < len(files) || time.Now().Before(deadline); i++ {
		fr.run(ctx, i%len(files))
		if pause != nil {
			pause()
		}
	}
	out.Fits = fr.fitList()
	return out
}
