// Command perfledger is the repository's benchmark. It runs fixed,
// seeded workloads through the public facade (gmeansmr.New(...).Run over
// FromFile) and the serving API (model, serve), checks every output, and
// prints each end-to-end metric by name with its unit. With -trace 1 it
// instead replays each workload through the program's layers, timing the
// calls from outside, and prints the per-layer metrics.
//
// Build and run it from the repository root with
//
//	bash cmd/perfledger/run.sh -workload gmeans-local -seed 1 -seconds 20 -trace 0
//
// or, inside cmd/perfledger, with go run . -seed 1 (all four workloads).
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. README.md describes the workloads and
// every metric.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"gmeansmr/internal/mrdist"
)

func main() {
	mrdist.MaybeWorker()
	log.SetFlags(0)
	log.SetPrefix("perfledger: ")

	var (
		name    = flag.String("workload", "all", "workload to run: gmeans-local, gmeans-proc, multik, serve, or all")
		seed    = flag.Int64("seed", 1, "seed every input and the clustering seed derive from")
		seconds = flag.Int("seconds", 20, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics instead of end-to-end ones")
		spans   = flag.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
		out     = flag.String("o", "", "append this invocation's full report to this file as one JSON line")
		workdir = flag.String("workdir", ".bench_build/perfledger/work", "directory for generated inputs and worker logs, emptied afterwards")
		child   = flag.Bool("child", false, "run one workload in this process (set by the parent process, not by users)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		log.Fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		log.Fatalf("-seconds must be at least 1, got %d", *seconds)
	}
	opts := runOpts{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}

	if *child {
		w, ok := findWorkload(*name)
		if !ok {
			log.Fatalf("unknown workload %q", *name)
		}
		res := runChild(w, opts, *workdir, pauseForParent)
		finiteValues(res.Layers)
		if res.Serve != nil {
			finiteValues(res.Serve.Metrics)
			finiteSummaries(res.Serve.Samples)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}

	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		log.Fatalf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		log.Fatal(err)
	}
	rep := report{Seed: opts.Seed, Seconds: opts.Seconds, Trace: opts.Trace}
	if *out != "" {
		rep.Fingerprint = fingerprint()
	}
	var allSpans []spanRecord
	for _, w := range selected {
		wr, sp, err := runParent(w, opts, *workdir)
		if err != nil {
			log.Fatalf("%s: %v", w.Name, err)
		}
		printWorkload(os.Stdout, wr)
		rep.Workloads = append(rep.Workloads, *wr)
		allSpans = append(allSpans, sp...)
	}
	if len(selected) > 1 {
		checkCrossWorkload(&rep)
	}
	if *spans != "" && opts.Trace {
		if err := writeSpans(*spans, allSpans); err != nil {
			log.Fatal(err)
		}
	}
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			log.Fatal(err)
		}
	}
	line, err := json.Marshal(rep.resultLine())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
}

// runOpts are the settings every workload of one invocation shares.
type runOpts struct {
	Seed    int64
	Seconds int
	Trace   bool
}

func (o runOpts) duration() time.Duration { return time.Duration(o.Seconds) * time.Second }

// childTimeout bounds one workload's child process beyond its measured
// time, so that a hung 20-second run still ends the command within three
// minutes.
func (o runOpts) childTimeout() time.Duration { return o.duration() + 140*time.Second }

// childResult is what a workload's child process reports to the parent.
type childResult struct {
	Runs   []runSample        `json:"runs,omitempty"`
	Fits   []fitResult        `json:"fits,omitempty"`
	Serve  *serveOut          `json:"serve,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
	// Checks lists every failed correctness check.
	Checks    []string `json:"checks,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	// MaxRSSKiB is the child's own peak resident set; ChildrenMaxRSSKiB
	// that of its largest subprocess (a proc-backend worker).
	MaxRSSKiB         int64 `json:"max_rss_kib"`
	ChildrenMaxRSSKiB int64 `json:"children_max_rss_kib"`
	// Calibration holds the reference times measured while the child
	// paused; the parent fills it in.
	Calibration []float64 `json:"-"`
}

// fail records a failed check that is not tied to one operation.
func (r *childResult) fail(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	r.Attempted++
	r.Failed++
}

// runChild runs workload w in this process and returns its raw result.
// An untraced run calls pause, when non-nil, between its operations.
func runChild(w workload, opts runOpts, dir string, pause func()) *childResult {
	ctx, cancel := context.WithTimeout(context.Background(), opts.childTimeout())
	defer cancel()
	var res *childResult
	var rec *recorder
	if opts.Trace {
		rec = newRecorder(fmt.Sprintf("%s/seed-%d", w.Name, opts.Seed))
		pause = nil // the per-layer metrics are not scaled
	}
	workers := sampleChildren(100 * time.Millisecond)
	switch {
	case w.Train != nil:
		files := make([]string, w.Train.Datasets)
		for i := range files {
			files[i] = datasetPath(dir, i)
		}
		if opts.Trace {
			res = traceTraining(ctx, w.Train, files, opts, rec)
		} else {
			res = measureTraining(ctx, w.Train, files, opts.Seed, opts.duration(), pause)
		}
	default:
		res = runServe(ctx, w.Serve, opts, rec, pause)
	}
	if opts.Trace {
		if res.Layers == nil {
			res.Layers = map[string]float64{}
		}
		spans := rec.snapshot()
		res.Layers["trace.spans"] = float64(len(spans))
		if err := writeSpans(filepath.Join(dir, "spans.json"), spans); err != nil {
			res.fail("writing spans: %v", err)
		}
	}
	res.MaxRSSKiB, res.ChildrenMaxRSSKiB = vmHWM("/proc/self/status"), workers.finish()
	return res
}

// runParent prepares w's inputs, runs w in a child process, checks the
// child's outputs and returns the workload's report and spans.
func runParent(w workload, opts runOpts, workdir string) (*workloadReport, []spanRecord, error) {
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	if err := prepareInputs(w, opts, dir); err != nil {
		return nil, nil, err
	}
	res, err := spawnChild(w, opts, dir)
	if err != nil {
		return nil, nil, err
	}
	var spans []spanRecord
	if opts.Trace {
		spans, err = readSpans(filepath.Join(dir, "spans.json"))
		if err != nil {
			res.fail("reading spans: %v", err)
		}
	}
	return evaluate(w, opts, dir, res), spans, nil
}

// prepareInputs writes w's generated inputs into dir: the seeded datasets
// of a training workload. The serving workload generates its model and
// queries in the child.
func prepareInputs(w workload, opts runOpts, dir string) error {
	t := w.Train
	if t == nil {
		return nil
	}
	for i := 0; i < t.Datasets; i++ {
		if err := writeDataset(datasetPath(dir, i), mixtureSpec(t.K, t.Dim, t.N, opts.Seed, i)); err != nil {
			return err
		}
	}
	return nil
}

// pauseLine is what a child prints when it pauses for a calibration; the
// parent answers with an empty line on the child's standard input once
// the reference computation is done.
const pauseLine = "perfledger: pause"

var parentAnswers = bufio.NewReader(os.Stdin)

// pauseForParent is the child's pause: it hands the machine to the parent
// for one calibration and waits until the parent is done.
func pauseForParent() {
	fmt.Println(pauseLine)
	if _, err := parentAnswers.ReadString('\n'); err != nil {
		log.Fatalf("waiting for the parent: %v", err)
	}
}

// spawnChild re-executes this binary as w's child process, calibrates
// whenever the child pauses, and decodes the child's result. Workers of
// the proc backend re-execute the same binary in turn and log into dir.
func spawnChild(w workload, opts runOpts, dir string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opts.childTimeout()+5*time.Second)
	defer cancel()
	trace := "0"
	if opts.Trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.Name,
		"-seed", fmt.Sprint(opts.Seed), "-seconds", fmt.Sprint(opts.Seconds), "-trace", trace, "-workdir", dir)
	cmd.Env = append(os.Environ(), "MRDIST_LOG_DIR="+filepath.Join(dir, "logs"), "TMPDIR="+filepath.Join(dir, "tmp"))
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	answers, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var cal calibration
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		switch line := sc.Bytes(); {
		case string(line) == pauseLine:
			cal.pause()
			// A write error means the child is gone; Wait reports why.
			_, _ = answers.Write([]byte("\n"))
		case len(bytes.TrimSpace(line)) > 0:
			last = append(last[:0], line...)
		}
	}
	answers.Close()
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	var res childResult
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	res.Calibration = cal.samples
	return &res, nil
}

func readSpans(path string) ([]spanRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Spans []spanRecord `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	return doc.Spans, nil
}

// metricValue is one metric as the JSON result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is the checked outcome of one workload.
type workloadReport struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Checks    []string               `json:"failed_checks,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples holds the distributions the timing metrics are read from,
	// by sample set (op_ms, setup_s, train_s, ...), as measured.
	Samples map[string]Summary `json:"samples,omitempty"`
	// Slowdown is the run's median calibration time over the reference
	// machine's; the timing metrics are the samples' statistics divided
	// by it.
	Slowdown float64         `json:"slowdown,omitempty"`
	Datasets []datasetReport `json:"datasets,omitempty"`
}

// report is one invocation's full output, as -o appends it.
type report struct {
	Fingerprint map[string]string `json:"fingerprint,omitempty"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       bool              `json:"trace"`
	Workloads   []workloadReport  `json:"workloads"`
	Checks      []string          `json:"failed_checks,omitempty"`
}

// resultLine is the last line of standard output. With one workload its
// metrics carry their plain names; with several, each name is prefixed
// with its workload.
func (r report) resultLine() map[string]any {
	correct, attempted, failed := len(r.Checks) == 0, 0, len(r.Checks)
	metrics := map[string]metricValue{}
	for _, w := range r.Workloads {
		correct = correct && w.Correct
		attempted += w.Attempted
		failed += w.Failed
		for k, v := range w.Metrics {
			if len(r.Workloads) > 1 {
				k = w.Workload + "/" + k
			}
			metrics[k] = v
		}
	}
	return map[string]any{"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
}

// finite maps values JSON cannot carry onto ones it can: a failed
// operation's +Inf latency becomes the largest float64, and an undefined
// value zero.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// printWorkload prints a workload's metrics, one per line, with the
// distribution behind each timing metric.
func printWorkload(w io.Writer, r *workloadReport) {
	status := "correct"
	if !r.Correct {
		status = "INCORRECT"
	}
	fmt.Fprintf(w, "%s: %s, %d attempted, %d failed\n", r.Workload, status, r.Attempted, r.Failed)
	if r.Slowdown > 0 {
		fmt.Fprintf(w, "  slowdown against the reference machine: %.4f (times below are divided by it)\n", r.Slowdown)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "  failed check: %s\n", c)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	names = names[:0]
	for k := range r.Samples {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s := r.Samples[k]
		line := fmt.Sprintf("  samples %-20s n=%d median=%.6g q1=%.6g q3=%.6g", k, s.N, s.Median, s.Q1, s.Q3)
		if s.TailQ > 0 {
			line += fmt.Sprintf(" p%g=%.6g", 100*s.TailQ, s.Tail)
		}
		fmt.Fprintln(w, line)
	}
}

// appendReport appends rep to path as one JSON line.
func appendReport(path string, rep report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finiteValues applies finite to every value of m.
func finiteValues(m map[string]float64) {
	for k, v := range m {
		m[k] = finite(v)
	}
}

// finiteSummaries applies finite to every statistic of m.
func finiteSummaries(m map[string]Summary) {
	for k, s := range m {
		s.Median, s.Q1, s.Q3, s.Tail = finite(s.Median), finite(s.Q1), finite(s.Q3), finite(s.Tail)
		m[k] = s
	}
}
