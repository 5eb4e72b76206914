package main

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Speed calibration. On the small virtual machines the benchmark targets,
// which share their host, the same code runs 10–40% faster or slower for
// minutes at a time as the neighbours' load changes, so two runs of one
// workload a few minutes apart differ by more than a regression bound
// should tolerate. A fixed reference computation run in the same minutes
// slows too. So each workload pauses between its operations while the
// parent process runs the reference, and every end-to-end time is divided
// by the run's slowdown, median reference time ÷ refCalibration: it is
// reported in reference seconds, the time the operation would have taken
// at the machine speed refCalibration was measured at. The reference runs
// in the parent so that it adds nothing to the workload's peak memory, and
// the workload's process is idle while it runs.
//
// No single kind of work tracks the program: in measurements on the
// reference machine, an ALU loop, a memory copy and a small model of the
// program each followed the program's speed best in some periods and
// worst in others. The reference therefore does a share of each.

// refCalibration is the reference computation's wall time on the
// reference machine, a two-vCPU Intel Xeon virtual machine with AVX-512
// (the fingerprint in ledger/001-baseline.jsonl), in a quiet hour: its
// run medians there ranged from 60 to 86 ms.
const refCalibration = 60 * time.Millisecond

// The reference computation's size, per goroutine.
const (
	referenceChain   = 5_000_000 // steps of the dependent multiply-add chain
	referenceCopy    = 16 << 20  // bytes of each of the two copy buffers
	referencePoints  = 6_000     // points of referenceDim coordinates
	referenceDim     = 16
	referenceCenters = 32
)

// reference holds the reference computation's fixed inputs, one set per
// goroutine.
type reference struct {
	points  [][]float64 // row-major
	copies  [][2][]byte
	centers []float64
}

func newReference(procs int) *reference {
	rng := rand.New(rand.NewSource(1))
	normals := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 30 * rng.NormFloat64()
		}
		return xs
	}
	r := &reference{centers: normals(referenceCenters * referenceDim)}
	for range procs {
		r.points = append(r.points, normals(referencePoints*referenceDim))
		r.copies = append(r.copies, [2][]byte{make([]byte, referenceCopy), make([]byte, referenceCopy)})
	}
	return r
}

// run does the reference work once on every goroutine and returns its
// wall time.
func (r *reference) run() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := range r.points {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 1.0
			for i := 0; i < referenceChain; i++ {
				x = x*1.0000001 + 1e-9
			}
			bufs := r.copies[g]
			copy(bufs[0], bufs[1])
			copy(bufs[1], bufs[0])
			bufs[0][0] = byte(x) // uses the chain, so the compiler keeps it
			r.modelProgram(r.points[g])
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// modelProgram does the program's main kinds of work on pts: format each
// point as a text line and parse it back (staging and decode), find each
// point's nearest center (the kernel), and sort the coordinates (the
// shuffle).
func (r *reference) modelProgram(pts []float64) {
	lines := make([]string, 0, len(pts)/referenceDim)
	var buf []byte
	for i := 0; i < len(pts); i += referenceDim {
		buf = buf[:0]
		for d, x := range pts[i : i+referenceDim] {
			if d > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendFloat(buf, x, 'g', -1, 64)
		}
		lines = append(lines, string(buf))
	}
	parsed := make([]float64, 0, len(pts))
	for _, line := range lines {
		for start, j := 0, 0; j <= len(line); j++ {
			if j == len(line) || line[j] == ' ' {
				x, _ := strconv.ParseFloat(line[start:j], 64) // formatted above, so valid
				parsed = append(parsed, x)
				start = j + 1
			}
		}
	}
	for i := 0; i < len(parsed); i += referenceDim {
		p, best := parsed[i:i+referenceDim], math.Inf(1)
		for c := 0; c < len(r.centers); c += referenceDim {
			var d2 float64
			for d, x := range r.centers[c : c+referenceDim] {
				diff := p[d] - x
				d2 += diff * diff
			}
			best = min(best, d2)
		}
		p[0] = best // feeds the sort, so the compiler keeps the search
	}
	slices.Sort(parsed)
}

// calibration collects the reference times of one workload run.
type calibration struct {
	ref     *reference
	samples []float64 // seconds
}

// pause is what a workload calls between operations: it runs the
// reference computation once.
func (c *calibration) pause() {
	if c.ref == nil {
		c.ref = newReference(runtime.GOMAXPROCS(0))
	}
	c.samples = append(c.samples, c.ref.run().Seconds())
}

// slowdown is how much slower than the reference machine a run's
// machine was: a measured time divided by it is in reference seconds. A
// run without samples is not scaled.
func slowdown(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return median(samples) / refCalibration.Seconds()
}
