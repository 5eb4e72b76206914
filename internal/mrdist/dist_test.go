// Package mrdist_test exercises the distributed backend end to end: the
// test binary doubles as its own worker fleet (TestMain hands worker-mode
// invocations to MaybeWorker before any test runs, so every job kind and
// value codec registered by the imported packages — plus the test-only
// "mrdist.sumtest" kind below — resolves identically on both sides).
package mrdist_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gmeansmr/internal/core"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/mrdist"
	"gmeansmr/internal/obs"
	"gmeansmr/internal/vec"
)

func TestMain(m *testing.M) {
	mrdist.MaybeWorker()
	os.Exit(m.Run())
}

// ---- test job kind: sum ints by residue class -------------------------

// kindSum groups the integers of a text input by v mod 5 and sums each
// group. The payload carries two fault-injection knobs: sleepMS paces map
// tasks so a wave is reliably in flight when a test kills a worker, and
// failReduce makes every reducer return sumReduceErr, a deterministic task
// failure that must cross the process boundary intact.
const kindSum = "mrdist.sumtest"

const sumKeys = 5

const sumReduceErr = "sumtest: reducer refuses its group"

type sumPayload struct {
	sleepMS    int
	failReduce bool
}

func sumSpec(p sumPayload) *mr.JobSpec {
	e := new(mrdist.Encoder).Begin()
	e.U32(uint32(p.sleepMS)).Bool(p.failReduce)
	return &mr.JobSpec{Kind: kindSum, Payload: e.Bytes()}
}

func init() {
	mrdist.RegisterKind(kindSum, func(payload []byte, _ int) (mrdist.JobParts, error) {
		d := mrdist.NewDecoder(payload)
		p := sumPayload{sleepMS: int(d.U32()), failReduce: d.Bool()}
		if err := d.Err(); err != nil {
			return mrdist.JobParts{}, err
		}
		return mrdist.JobParts{
			NewPointMapper: func() mr.PointMapper { return &sumMapper{sleepMS: p.sleepMS} },
			NewReducer:     func() mr.Reducer { return sumReducer{fail: p.failReduce} },
		}, nil
	})
}

type sumMapper struct {
	sleepMS int
}

func (m *sumMapper) Setup(*mr.TaskContext) error {
	if m.sleepMS > 0 {
		time.Sleep(time.Duration(m.sleepMS) * time.Millisecond)
	}
	return nil
}

// MapColumns sums the split per residue and emits one partial sum per
// residue seen, combining in-mapper like the production kinds.
func (m *sumMapper) MapColumns(ctx *mr.TaskContext, cols *dfs.ColumnarSplit, emit mr.Emitter) error {
	col := cols.Col(0)
	var sums, seen [sumKeys]int64
	for _, x := range col {
		v := int64(x)
		sums[v%sumKeys] += v
		seen[v%sumKeys]++
	}
	for key := range sums {
		if seen[key] > 0 {
			emit.Emit(int64(key), mr.Int64Value(sums[key]))
		}
	}
	ctx.Count("sumtest.records", int64(len(col)))
	return nil
}

func (m *sumMapper) Close(*mr.TaskContext, mr.Emitter) error { return nil }

type sumReducer struct {
	fail bool
}

func (sumReducer) Setup(*mr.TaskContext) error { return nil }

func (r sumReducer) Reduce(ctx *mr.TaskContext, key int64, values []mr.Value, emit mr.Emitter) error {
	if r.fail {
		return errors.New(sumReduceErr)
	}
	var sum int64
	for _, v := range values {
		iv, ok := v.(mr.Int64Value)
		if !ok {
			return fmt.Errorf("unexpected value %T", v)
		}
		sum += int64(iv)
	}
	emit.Emit(key, mr.Int64Value(sum))
	return nil
}

func (sumReducer) Close(*mr.TaskContext, mr.Emitter) error { return nil }

// numbersFS writes 0..n-1 one per line and returns the FS plus the
// expected per-residue sums.
func numbersFS(n, splitSize int) (*dfs.FS, map[int64]int64) {
	var buf strings.Builder
	want := make(map[int64]int64, sumKeys)
	for v := 0; v < n; v++ {
		buf.WriteString(strconv.Itoa(v) + "\n")
		want[int64(v%sumKeys)] += int64(v)
	}
	fs := dfs.New(splitSize)
	fs.Create("/nums.txt", []byte(buf.String()))
	return fs, want
}

func sumJob(fs *dfs.FS, cluster mr.Cluster, runner mr.TaskRunner, p sumPayload) *mr.Job {
	j, err := mrdist.Build(&mr.Job{
		Name:     "dist-sum",
		FS:       fs,
		Cluster:  cluster,
		Input:    "/nums.txt",
		PointDim: 1,
		Runner:   runner,
		Spec:     sumSpec(p),
	})
	if err != nil {
		panic(err) // every sumPayload encodes a payload its builder decodes
	}
	return j
}

func checkSums(t *testing.T, res *mr.Result, want map[int64]int64) {
	t.Helper()
	got := make(map[int64]int64, len(res.Output))
	for _, kv := range res.Output {
		iv, ok := kv.Value.(mr.Int64Value)
		if !ok {
			t.Fatalf("output value %T for key %d", kv.Value, kv.Key)
		}
		got[kv.Key] += int64(iv)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sums = %v, want %v", got, want)
	}
}

func testCluster(nodes, mapSlots, reduceSlots int) mr.Cluster {
	return mr.Cluster{Nodes: nodes, MapSlotsPerNode: mapSlots, ReduceSlotsPerNode: reduceSlots}
}

// ---- equivalence pins --------------------------------------------------

func sameCenters(t *testing.T, what string, local, proc []vec.Vector) {
	t.Helper()
	if len(local) != len(proc) {
		t.Fatalf("%s: %d centers local vs %d proc", what, len(local), len(proc))
	}
	for i := range local {
		if len(local[i]) != len(proc[i]) {
			t.Fatalf("%s: center %d dim mismatch", what, i)
		}
		for j := range local[i] {
			if math.Float64bits(local[i][j]) != math.Float64bits(proc[i][j]) {
				t.Fatalf("%s: center %d coord %d differs: %x vs %x",
					what, i, j, math.Float64bits(local[i][j]), math.Float64bits(proc[i][j]))
			}
		}
	}
}

func sameCounters(t *testing.T, what string, local, proc *mr.Counters) {
	t.Helper()
	l, p := local.Snapshot(), proc.Snapshot()
	if !reflect.DeepEqual(l, p) {
		t.Errorf("%s: counters differ\nlocal: %v\nproc:  %v", what, l, p)
	}
}

// gmeansEnv builds a fresh dataset + DFS + Env per backend, so neither run
// sees the other's read accounting.
func gmeansEnv(t *testing.T, spec dataset.Spec, runner mr.TaskRunner) (kmeansmr.Env, *dfs.FS) {
	t.Helper()
	ds, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(16 << 10)
	ds.WriteToDFS(fs, "/data/points.txt")
	return kmeansmr.Env{
		FS:      fs,
		Cluster: testCluster(3, 2, 2),
		Input:   "/data/points.txt",
		Dim:     spec.Dim,
		Runner:  runner,
	}, fs
}

// TestProcBackendMatchesLocalExactly is the backend equivalence pin: a
// full G-means trajectory on the proc backend must be bit-identical to the
// in-process reference — centers, per-iteration sizes, job counters and
// dataset-read accounting.
func TestProcBackendMatchesLocalExactly(t *testing.T) {
	spec := dataset.Spec{K: 5, Dim: 3, N: 4000, MinSeparation: 16, Seed: 11}

	runTraj := func(runner mr.TaskRunner) (*core.Result, int64) {
		env, fs := gmeansEnv(t, spec, runner)
		res, err := core.Run(core.Config{Env: env, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res, fs.DatasetReads()
	}

	local, localReads := runTraj(nil)

	runner := mrdist.NewProcRunner(mrdist.Options{})
	defer runner.Close()
	proc, procReads := runTraj(runner)

	if local.K != proc.K || local.KBeforeMerge != proc.KBeforeMerge {
		t.Errorf("k: local %d/%d, proc %d/%d", local.K, local.KBeforeMerge, proc.K, proc.KBeforeMerge)
	}
	if local.Iterations != proc.Iterations {
		t.Errorf("iterations: local %d, proc %d", local.Iterations, proc.Iterations)
	}
	sameCenters(t, "gmeans", local.Centers, proc.Centers)
	sameCounters(t, "gmeans", local.Counters, proc.Counters)
	if localReads != procReads {
		t.Errorf("dataset reads: local %d, proc %d", localReads, procReads)
	}

	// One plain k-means iteration pins cluster sizes, which the G-means
	// result does not expose directly.
	centers0 := []vec.Vector{{0, 0, 0}, {50, 50, 50}, {-50, 20, 0}, {20, -40, 60}}
	envL, _ := gmeansEnv(t, spec, nil)
	itL, err := kmeansmr.Iterate(envL, centers0)
	if err != nil {
		t.Fatal(err)
	}
	envP, _ := gmeansEnv(t, spec, runner)
	itP, err := kmeansmr.Iterate(envP, centers0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(itL.Sizes, itP.Sizes) {
		t.Errorf("iterate sizes: local %v, proc %v", itL.Sizes, itP.Sizes)
	}
	sameCenters(t, "iterate", itL.Centers, itP.Centers)
	sameCounters(t, "iterate", itL.Job.Counters, itP.Job.Counters)
}

// TestProcSampledTestMatchesLocal pins the normality test's sample across
// the process boundary: with clusters several times the test's
// 4,096-projection sample, every map task picks its records from the
// payload, its task id and the record indices alone, so the proc
// trajectory equals the local one bit for bit.
func TestProcSampledTestMatchesLocal(t *testing.T) {
	spec := dataset.Spec{K: 2, Dim: 3, N: 3 * 2 * 4096, MinSeparation: 16, Seed: 12}

	run := func(runner mr.TaskRunner) (*core.Result, []int64) {
		env, _ := gmeansEnv(t, spec, runner)
		var projections []int64
		res, err := core.Run(core.Config{Env: env, Seed: 8,
			Progress: func(_ core.IterationStats, c map[string]int64) {
				projections = append(projections, c[core.CounterProjections])
			}})
		if err != nil {
			t.Fatal(err)
		}
		return res, projections
	}

	local, localProj := run(nil)
	runner := mrdist.NewProcRunner(mrdist.Options{})
	defer runner.Close()
	proc, procProj := run(runner)

	// Round 1 tests the whole dataset as one cluster: the sample, not N.
	if len(localProj) == 0 || localProj[0] > int64(spec.N)/2 {
		t.Fatalf("round 1 shipped %v projections of %d points: the test did not sample", localProj, spec.N)
	}
	if !reflect.DeepEqual(localProj, procProj) {
		t.Errorf("cumulative projections by round: local %v, proc %v", localProj, procProj)
	}
	if local.K != proc.K || local.Iterations != proc.Iterations {
		t.Errorf("k/iterations: local %d/%d, proc %d/%d", local.K, local.Iterations, proc.K, proc.Iterations)
	}
	sameCenters(t, "gmeans", local.Centers, proc.Centers)
	sameCounters(t, "gmeans", local.Counters, proc.Counters)
}

// TestProcPCACandidatesMatchLocal pins G-means' principal-component
// candidates, which the last k-means pass (the gmeans.lastpass kind)
// places: its per-cluster Σx, count and scatter ship the app-registered
// covValue codec across the wire, and its reducer output mixes weighted
// points with the children.
func TestProcPCACandidatesMatchLocal(t *testing.T) {
	spec := dataset.Spec{K: 3, Dim: 2, N: 1500, MinSeparation: 16, Seed: 4}

	run := func(runner mr.TaskRunner) *core.Result {
		env, _ := gmeansEnv(t, spec, runner)
		res, err := core.Run(core.Config{Env: env, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	local := run(nil)
	runner := mrdist.NewProcRunner(mrdist.Options{})
	defer runner.Close()
	proc := run(runner)

	if local.K != proc.K || local.Iterations != proc.Iterations {
		t.Errorf("local k=%d iters=%d, proc k=%d iters=%d",
			local.K, local.Iterations, proc.K, proc.Iterations)
	}
	if local.Counters.Get(core.CounterCovUpdates) == 0 {
		t.Error("no covariance updates: the last pass placed no children")
	}
	sameCenters(t, "lastpass", local.Centers, proc.Centers)
	sameCounters(t, "lastpass", local.Counters, proc.Counters)
}

// TestProcRunnerReusedAcrossFileSystems runs two different mixtures,
// each staged in its own DFS at the same path, through one ProcRunner.
// The runner remembers which splits each worker holds by (path, version,
// index); each proc run must still equal its local run, so the second
// DFS's points must reach the workers instead of the first's.
func TestProcRunnerReusedAcrossFileSystems(t *testing.T) {
	specs := []dataset.Spec{
		{K: 3, Dim: 2, N: 1500, MinSeparation: 16, Seed: 4},
		{K: 6, Dim: 2, N: 1500, MinSeparation: 16, Seed: 9},
	}
	run := func(spec dataset.Spec, runner mr.TaskRunner) *core.Result {
		env, _ := gmeansEnv(t, spec, runner)
		res, err := core.Run(core.Config{Env: env, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	runner := mrdist.NewProcRunner(mrdist.Options{})
	defer runner.Close()
	for i, spec := range specs {
		local := run(spec, nil)
		proc := run(spec, runner)
		what := fmt.Sprintf("mixture %d", i)
		if local.K != proc.K || local.Iterations != proc.Iterations {
			t.Fatalf("%s: local k=%d iters=%d, proc k=%d iters=%d",
				what, local.K, local.Iterations, proc.K, proc.Iterations)
		}
		sameCenters(t, what, local.Centers, proc.Centers)
		sameCounters(t, what, local.Counters, proc.Counters)
	}
}

// TestProcMultiKMatchesLocal pins the multi-k baseline and its evaluation
// job (the evalValue codec) across backends. At k_max = 12 over 6
// clusters the mappers assign most k inside the k_max groups, so the
// per-job distance table a worker builds per task is pinned too.
func TestProcMultiKMatchesLocal(t *testing.T) {
	spec := dataset.Spec{K: 6, Dim: 2, N: 1500, MinSeparation: 16, Seed: 4}

	run := func(runner mr.TaskRunner) *kmeansmr.MultiResult {
		env, _ := gmeansEnv(t, spec, runner)
		cfg := kmeansmr.MultiConfig{Env: env, KMin: 1, KMax: 12, Iterations: 3, Seed: 5}
		res, err := kmeansmr.RunMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := kmeansmr.Evaluate(cfg, res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	local := run(nil)
	runner := mrdist.NewProcRunner(mrdist.Options{})
	defer runner.Close()
	proc := run(runner)

	if len(local.CentersByK) != len(proc.CentersByK) {
		t.Fatalf("center sets: local %d ks, proc %d ks", len(local.CentersByK), len(proc.CentersByK))
	}
	for k, lc := range local.CentersByK {
		sameCenters(t, fmt.Sprintf("multik k=%d", k), lc, proc.CentersByK[k])
	}
	for k, lw := range local.WCSSByK {
		if math.Float64bits(lw) != math.Float64bits(proc.WCSSByK[k]) {
			t.Errorf("wcss[%d]: local %x, proc %x", k, math.Float64bits(lw), math.Float64bits(proc.WCSSByK[k]))
		}
	}
	sameCounters(t, "multik", local.Counters, proc.Counters)
}

// ---- plain job equivalence, task-error identity ------------------------

func TestProcSumJobMatchesLocal(t *testing.T) {
	cluster := testCluster(2, 2, 2)

	fsL, want := numbersFS(2000, 1<<10)
	localRes, err := sumJob(fsL, cluster, nil, sumPayload{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	checkSums(t, localRes, want)

	runner := mrdist.NewProcRunner(mrdist.Options{})
	defer runner.Close()
	fsP, _ := numbersFS(2000, 1<<10)
	procRes, err := sumJob(fsP, cluster, runner, sumPayload{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	checkSums(t, procRes, want)

	if !reflect.DeepEqual(localRes.Output, procRes.Output) {
		t.Errorf("output pairs differ:\nlocal %v\nproc  %v", localRes.Output, procRes.Output)
	}
	sameCounters(t, "sum", localRes.Counters, procRes.Counters)
	if localRes.MapTasks != procRes.MapTasks || localRes.ReduceTasks != procRes.ReduceTasks {
		t.Errorf("task counts: local %d/%d, proc %d/%d",
			localRes.MapTasks, localRes.ReduceTasks, procRes.MapTasks, procRes.ReduceTasks)
	}
}

// TestProcTaskErrorIdentity checks that a worker-side reducer error
// crosses the wire as the *mr.TaskError the local backend returns, with
// its task kind and message, and is not retried (the failure is
// deterministic, as in the local engine).
func TestProcTaskErrorIdentity(t *testing.T) {
	cluster := testCluster(2, 2, 2)
	fail := sumPayload{failReduce: true}

	fsL, _ := numbersFS(500, 1<<10)
	_, localErr := sumJob(fsL, cluster, nil, fail).Run()
	var local *mr.TaskError
	if !errors.As(localErr, &local) || local.Kind != mr.ReduceTask || local.Err.Error() != sumReduceErr {
		t.Fatalf("local error = %v, want a reduce TaskError saying %q", localErr, sumReduceErr)
	}

	runner := mrdist.NewProcRunner(mrdist.Options{})
	defer runner.Close()
	fs, _ := numbersFS(500, 1<<10)
	_, err := sumJob(fs, cluster, runner, fail).Run()
	if err == nil {
		t.Fatal("job with a failing reducer succeeded")
	}
	var te *mr.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error is not a TaskError: %v", err)
	}
	if te.Kind != mr.ReduceTask {
		t.Errorf("failing task kind = %q, want reduce", te.Kind)
	}
	if te.Err.Error() != local.Err.Error() {
		t.Errorf("proc message %q, local %q", te.Err.Error(), local.Err.Error())
	}
	if got := runner.Registry().Counter(mrdist.MetricTaskRetries).Value(); got != 0 {
		t.Errorf("deterministic task error was retried %d times", got)
	}
}

// ---- fault injection ---------------------------------------------------

// TestProcWorkerDeathMidWave SIGKILLs one worker while the map wave is in
// flight: the job must still complete with correct output, and the retry
// and death metrics must record the recovery.
func TestProcWorkerDeathMidWave(t *testing.T) {
	runner := mrdist.NewProcRunner(mrdist.Options{})
	defer runner.Close()

	// 1-slot nodes and paced map tasks keep the wave long enough to kill a
	// worker that holds both completed map output and a running task. The
	// job's trace names the worker of every finished map task, so the kill
	// lands on a worker whose output the reduce wave must fetch: that
	// failed fetch declares the death whether or not a heartbeat has
	// noticed it yet.
	fs, want := numbersFS(2400, 1<<10)
	job := sumJob(fs, testCluster(3, 1, 1), runner, sumPayload{sleepMS: 200})
	job.Trace = obs.NewTrace()

	type outcome struct {
		res *mr.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := job.Run()
		done <- outcome{res, err}
	}()

	killDeadline := time.After(20 * time.Second)
	killed := false
poll:
	for !killed {
		select {
		case o := <-done:
			t.Fatalf("job finished before a worker could be killed (err=%v)", o.err)
		case <-killDeadline:
			break poll
		case <-time.After(5 * time.Millisecond):
			pids := runner.WorkerPIDs()
			id, ok := finishedMapWorker(job.Trace)
			if ok && len(pids) == 3 {
				if err := syscall.Kill(pids[id], syscall.SIGKILL); err != nil {
					t.Fatalf("kill worker: %v", err)
				}
				killed = true
			}
		}
	}
	if !killed {
		t.Fatal("never reached a killable point in the map wave")
	}

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("job failed after worker death: %v", o.err)
		}
		checkSums(t, o.res, want)
	case <-time.After(60 * time.Second):
		t.Fatal("job did not complete after worker death")
	}

	if got := runner.Registry().Counter(mrdist.MetricWorkerDeaths).Value(); got < 1 {
		t.Errorf("worker deaths metric = %d, want >= 1", got)
	}
	if got := runner.Registry().Counter(mrdist.MetricTaskRetries).Value(); got < 1 {
		t.Errorf("task retries metric = %d, want >= 1", got)
	}
}

// finishedMapWorker returns the node id of a worker that has finished a
// map task, read from the task spans the master records on the job trace.
func finishedMapWorker(tr *obs.Trace) (int, bool) {
	for _, ev := range tr.Events() {
		if ev.Name == "map-task" {
			if id, ok := ev.Args["worker"].(int); ok {
				return id, true
			}
		}
	}
	return 0, false
}

// TestProcStragglerSpeculation slows one worker's map tasks via the test
// hook and checks that the master launches speculative duplicates and the
// job completes correctly (first completion wins; no timing assertions).
func TestProcStragglerSpeculation(t *testing.T) {
	runner := mrdist.NewProcRunner(mrdist.Options{
		WorkerEnv: func(i int) []string {
			if i == 1 {
				return []string{mrdist.EnvTestSlowMS + "=1500"}
			}
			return nil
		},
		HeartbeatInterval: 50 * time.Millisecond,
		SpeculateAfter:    150 * time.Millisecond,
	})
	defer runner.Close()

	fs, want := numbersFS(1000, 1<<10)
	res, err := sumJob(fs, testCluster(2, 2, 1), runner, sumPayload{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	checkSums(t, res, want)

	if got := runner.Registry().Counter(mrdist.MetricSpeculative).Value(); got < 1 {
		t.Errorf("speculative tasks metric = %d, want >= 1", got)
	}
	if got := runner.Registry().Counter(mrdist.MetricWorkerDeaths).Value(); got != 0 {
		t.Errorf("straggling worker was marked dead (%d deaths); slow != dead", got)
	}
}

// ---- split push ----------------------------------------------------------

// pushCounter is an http.RoundTripper that decodes every split push the
// master sends and counts it per (worker, path, version, split index).
type pushCounter struct {
	mu     sync.Mutex
	pushes map[string]int
	bytes  int64
	coords int64
	n      int
}

func (c *pushCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/fs/push" {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		frame, err := io.ReadAll(body)
		if err != nil {
			return nil, err
		}
		d := mrdist.NewDecoder(frame)
		path, version, index := d.Str(), d.I64(), d.U32()
		d.I64() // start
		d.I64() // end
		d.U32() // dim
		d.I64() // logical text bytes
		coords := len(d.Vec())
		if d.Err() != nil {
			return nil, d.Err()
		}
		c.mu.Lock()
		c.pushes[fmt.Sprintf("%s %s v%d split %d", req.URL.Host, path, version, index)]++
		c.bytes += int64(len(frame))
		c.coords += int64(coords)
		c.n++
		c.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestProcPushesEachSplitOncePerWorker runs a chained G-means trajectory
// on the proc backend with no faults: every worker gets each split it
// runs at most once, as float64 points, so the push bytes are bounded by
// one copy of the points per worker plus framing.
func TestProcPushesEachSplitOncePerWorker(t *testing.T) {
	spec := dataset.Spec{K: 4, Dim: 3, N: 3000, MinSeparation: 16, Seed: 5}
	counter := &pushCounter{pushes: make(map[string]int)}
	runner := mrdist.NewProcRunner(mrdist.Options{Transport: counter})
	defer runner.Close()

	env, fs := gmeansEnv(t, spec, runner)
	res, err := core.Run(core.Config{Env: env, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("trajectory ran %d iterations; the test needs chained jobs", res.Iterations)
	}
	splits, err := fs.Splits(env.Input)
	if err != nil {
		t.Fatal(err)
	}
	if deaths := runner.Registry().Counter(mrdist.MetricWorkerDeaths).Value(); deaths != 0 {
		t.Fatalf("%d worker deaths in a run without faults", deaths)
	}

	counter.mu.Lock()
	defer counter.mu.Unlock()
	if counter.n == 0 {
		t.Fatal("no split was pushed")
	}
	for key, n := range counter.pushes {
		if n > 1 {
			t.Errorf("%s pushed %d times", key, n)
		}
	}
	nodes := int64(env.Cluster.Nodes)
	points := nodes * int64(spec.N*spec.Dim)
	if counter.coords > points {
		t.Errorf("pushed %d coordinates, more than %d workers × %d", counter.coords, nodes, spec.N*spec.Dim)
	}
	framing := int64(counter.n) * int64(64+len(env.Input))
	if counter.bytes > 8*points+framing {
		t.Errorf("push bytes %d exceed %d workers × 8·n·dim (%d) plus framing (%d)", counter.bytes, nodes, 8*points, framing)
	}
	if counter.n > len(splits)*int(nodes) {
		t.Errorf("%d pushes for %d splits on %d workers", counter.n, len(splits), nodes)
	}
}

// sumMapFrame is a map-task request for kindSum's task 0 on the split
// sumSplitKey names, hand-encoded in the task request layout of
// docs/wire.md.
func sumMapFrame() []byte {
	e := new(mrdist.Encoder).Begin()
	spec := sumSpec(sumPayload{})
	e.Str("job-1").Str("dist-sum").Str(spec.Kind).Blob(spec.Payload)
	e.U32(1).U32(1).U32(1) // cluster: nodes, map slots, reduce slots
	e.U32(1).U32(2)        // point dim, reducers
	e.U32(0)               // task id
	sumSplitKey(e)
	return e.Bytes()
}

// sumSplitKey encodes the split of both frames: path, version, index,
// start, end.
func sumSplitKey(e *mrdist.Encoder) {
	e.Str("/nums.txt").I64(1).U32(0).I64(0).I64(20)
}

// TestWorkerMapWithoutSplitIsStale checks that a worker answers a map
// task on a split it was never pushed with status 3 (stale), and runs the
// same task once the split's points arrive.
func TestWorkerMapWithoutSplitIsStale(t *testing.T) {
	h := mrdist.NewWorker().Handler()
	post := func(path string, frame []byte) *mrdist.Decoder {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", path, bytes.NewReader(frame)))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, rr.Code, rr.Body.String())
		}
		return mrdist.NewDecoder(rr.Body.Bytes())
	}

	if st := post("/v1/task/map", sumMapFrame()).U8(); st != 3 {
		t.Fatalf("map on a split the worker lacks: status %d, want 3", st)
	}

	push := new(mrdist.Encoder).Begin()
	sumSplitKey(push)
	push.U32(1).I64(20).Vec([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) // "0\n" … "9\n"
	if st := post("/v1/fs/push", push.Bytes()).U8(); st != 0 {
		t.Fatalf("push: status %d, want 0", st)
	}

	d := post("/v1/task/map", sumMapFrame())
	if st := d.U8(); st != 0 {
		t.Fatalf("map after the push: status %d, want 0", st)
	}
	counters := mr.NewCounters()
	if !d.MergeCounters(counters) {
		t.Fatalf("map reply: %v", d.Err())
	}
	if got := counters.Snapshot()["sumtest.records"]; got != 10 {
		t.Errorf("map task read %d records, want 10", got)
	}
}
