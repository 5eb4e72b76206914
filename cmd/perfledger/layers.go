package main

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"gmeansmr"
	"gmeansmr/internal/core"
	"gmeansmr/internal/criteria"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/mrdist"
	"gmeansmr/internal/obs"
	"gmeansmr/internal/stats"
	"gmeansmr/internal/vec"
)

// stagedPath is where the facade stages its input in the simulated DFS;
// the replay uses the same path.
const stagedPath = "/data/points.txt"

// minReplays is the least number of replays a traced run makes.
const minReplays = 3

// traceTraining is the traced run of a training workload, on dataset 0.
// It alternates untraced facade Runs with replays of such a Run, layer by
// layer, through the same public calls the facade makes: staging, a cold
// decode, and the driver on a timing TaskRunner (and, for the proc
// backend, a timing RoundTripper). Alternating keeps a drift in the
// machine's speed out of the ratio between replay and Run. The layer
// metrics are those of the median replay. Kernel and Anderson–Darling
// costs are estimated afterwards by replaying those calls on the run's
// own outputs.
func traceTraining(ctx context.Context, t *trainSpec, files []string, opts runOpts, rec *recorder) *childResult {
	res := &childResult{Layers: map[string]float64{}}
	fr, ok := newFacadeRunner(ctx, t, opts.Seed, files[:1], res)
	if !ok {
		return res
	}
	res.Fits = fr.fitList()
	want := fr.fits[0].Digest
	var untraced []float64
	var replays []*replay
	deadline := time.Now().Add(opts.duration())
	for i := 0; ; i++ {
		s, ok := fr.run(ctx, 0)
		if !ok {
			return res
		}
		untraced = append(untraced, s.WallS)
		if i >= minReplays && !time.Now().Before(deadline) {
			break
		}
		runtime.GC()
		rp, err := replayRun(ctx, t, files[0], opts.Seed, want, rec)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Checks = append(res.Checks, fmt.Sprintf("replay %d: %v", i, err))
			return res
		}
		if n := len(replays); n > 0 {
			replays[n-1].env = kmeansmr.Env{} // hold one staged dataset at a time
		}
		replays = append(replays, rp)
	}
	// Each replay is compared with the mean of the Runs just before and
	// after it.
	var explained, overhead []float64
	for i, rp := range replays {
		around := (untraced[i] + untraced[i+1]) / 2
		explained = append(explained, rp.explained/around)
		overhead = append(overhead, rp.total/around)
	}
	last := replays[len(replays)-1]
	slices.SortFunc(replays, func(a, b *replay) int { return cmp.Compare(a.explained, b.explained) })
	maps.Copy(res.Layers, replays[(len(replays)-1)/2].layers)
	L := res.Layers
	L["trace.explained_ratio"] = median(explained)
	L["trace.overhead_ratio"] = median(overhead)

	root := rec.start("estimates", 0, 0)
	defer root.end()
	sizes, err := replayKernel(last.env, last.drv, L, rec, root.id())
	if err != nil {
		res.fail("kernel replay: %v", err)
		return res
	}
	replayADTests(sizes, opts.Seed, L, rec, root.id())
	return res
}

// replay is one layer-by-layer replay of a facade Run.
type replay struct {
	layers map[string]float64
	// explained is the time the layer spans cover: staging, decode and
	// the driver call; total is the replay's wall time. Both leave out
	// the local reference run a proc-backend replay makes.
	explained, total float64
	// env and drv are the staged dataset and driver outcome the kernel
	// and Anderson–Darling estimates replay on.
	env kmeansmr.Env
	drv *driverRun
}

// replayRun replays one Run of t over the dataset at path and requires
// its result to have digest want.
func replayRun(ctx context.Context, t *trainSpec, path string, seed int64, want string, rec *recorder) (*replay, error) {
	root := rec.start("replay", 0, 0)
	defer root.end()
	rp := &replay{layers: map[string]float64{}}
	L := rp.layers
	start := time.Now()
	env, points, err := replayStage(ctx, path, L, rec, root.id())
	if err != nil {
		return nil, fmt.Errorf("staging: %w", err)
	}
	stageS := time.Since(start).Seconds()
	decodeS, err := replayDecode(env, L, rec, root.id())
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}

	var localWaves float64
	var localWall time.Duration
	var inner mr.TaskRunner = mr.LocalRunner{}
	var tt *timingTransport
	var reg *obs.Registry
	if t.Backend == gmeansmr.BackendProc {
		// The same jobs on the local backend first: the difference of
		// the waves is the transport's cost.
		local, err := replayDriver(ctx, t, env, points, seed, mr.LocalRunner{}, nil, rec, root.id())
		if err != nil {
			return nil, fmt.Errorf("local driver: %w", err)
		}
		if local.digest != want {
			return nil, fmt.Errorf("local replay digest %s differs from the untraced Run's %s", local.digest, want)
		}
		localWaves, localWall = local.waves(), local.wall
		env.FS.ResetCounters()
		tt = &timingTransport{inner: http.DefaultTransport, rec: rec, stats: map[string]*rpcStat{}}
		reg = obs.NewRegistry()
		proc := mrdist.NewProcRunner(mrdist.Options{Transport: tt, Registry: reg})
		defer proc.Close()
		inner = proc
	}
	drv, err := replayDriver(ctx, t, env, points, seed, inner, tt, rec, root.id())
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	rp.total = (time.Since(start) - localWall).Seconds()
	if drv.digest != want {
		return nil, fmt.Errorf("traced digest %s differs from the untraced Run's %s", drv.digest, want)
	}
	drv.report(L)
	rp.explained = stageS + decodeS + drv.wall.Seconds()
	if tt != nil {
		tt.report(L, drv.jobs[0].start)
		L["mrdist.overhead_s"] = drv.waves() - localWaves
		L["mrdist.retries"] = float64(reg.Counter(mrdist.MetricTaskRetries).Value())
		if d := reg.Counter(mrdist.MetricTasksDispatched).Value(); d > 0 {
			L["mrdist.dispatch_efficiency"] = float64(reg.Counter(mrdist.MetricTasksCompleted).Value()) / float64(d)
		}
	}
	rp.env, rp.drv = env, drv
	return rp, nil
}

// stageChunk is how many points the staging replay reads, then formats,
// then writes per step: timing each point alone would add three clock
// reads per point to the replay.
const stageChunk = 1024

// replayStage streams the dataset file into a fresh simulated DFS the
// way the facade's staging does — read a point, validate it, format it as
// text, write it — and applies the facade's split-size rule. Each kind of
// call is timed separately, a chunk of points at a time. It returns the
// staged environment and the point count.
func replayStage(ctx context.Context, path string, L map[string]float64, rec *recorder, parent int64) (kmeansmr.Env, int, error) {
	sp := rec.start("stage", parent, 0)
	defer sp.end()
	cluster := mr.DefaultCluster().WithNodes(nodes)
	fs := dfs.New(0)
	rd, err := gmeansmr.FromFile(path).Open()
	if err != nil {
		return kmeansmr.Env{}, 0, err
	}
	defer rd.Close()
	w := fs.Writer(stagedPath)
	var read, format, write time.Duration
	n, dim := 0, 0
	points := make([]gmeansmr.Point, 0, stageChunk)
	lines := make([]string, 0, stageChunk)
	for eof := false; !eof; {
		t0 := time.Now()
		points = points[:0]
		for len(points) < stageChunk {
			p, err := rd.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return kmeansmr.Env{}, 0, err
			}
			if err := dataset.ValidatePoint(p); err != nil {
				return kmeansmr.Env{}, 0, err
			}
			points = append(points, p)
		}
		t1 := time.Now()
		lines = lines[:0]
		for _, p := range points {
			lines = append(lines, dataset.FormatPoint(p))
		}
		t2 := time.Now()
		for _, line := range lines {
			w.WriteString(line)
			w.WriteString("\n")
		}
		t3 := time.Now()
		read, format, write = read+t1.Sub(t0), format+t2.Sub(t1), write+t3.Sub(t2)
		n += len(points)
		if len(points) > 0 {
			dim = len(points[0])
		}
	}
	t0 := time.Now()
	w.Close()
	total, err := fs.Size(stagedPath)
	if err != nil {
		return kmeansmr.Env{}, 0, err
	}
	fs.SetSplitSize(max(int(total)/(cluster.MapCapacity()*4), 4<<10))
	write += time.Since(t0)
	L["stage.read_s"] = read.Seconds()
	L["stage.format_s"] = format.Seconds()
	L["stage.write_s"] = write.Seconds()
	L["dfs.staged_bytes"] = float64(total)
	return kmeansmr.Env{FS: fs, Cluster: cluster, Input: stagedPath, Dim: dim, Ctx: ctx}, n, nil
}

// replayDecode decodes every split cold, in file order on one goroutine
// as the driver's initial sample pass does, then builds every split's
// dim-major columns on as many goroutines as the cluster has map slots,
// as the first map wave does. It returns the wall time of both steps.
func replayDecode(env kmeansmr.Env, L map[string]float64, rec *recorder, parent int64) (float64, error) {
	sp := rec.start("decode", parent, 0)
	defer sp.end()
	splits, err := env.FS.Splits(env.Input)
	if err != nil {
		return 0, err
	}
	decoded := make([]*dfs.PointSplit, len(splits))
	var bytes int64
	ds := rec.start("dfs.OpenSplitPoints", sp.id(), 0)
	start := time.Now()
	for i, s := range splits {
		if decoded[i], err = env.FS.OpenSplitPoints(s, env.Dim); err != nil {
			return 0, err
		}
		bytes += decoded[i].Bytes()
	}
	decode := time.Since(start)
	ds.end()
	cs := rec.start("dfs.Columns", sp.id(), 0)
	start = time.Now()
	var wg sync.WaitGroup
	sem := make(chan struct{}, env.Cluster.MapCapacity())
	for _, ps := range decoded {
		sem <- struct{}{}
		wg.Add(1)
		go func(ps *dfs.PointSplit) {
			defer func() { <-sem; wg.Done() }()
			ps.Columns()
		}(ps)
	}
	wg.Wait()
	columns := time.Since(start)
	cs.end()
	L["dfs.decode_s"] = decode.Seconds()
	L["dfs.columns_s"] = columns.Seconds()
	L["dfs.decode_mb_per_s"] = float64(bytes) / 1e6 / decode.Seconds()
	L["dfs.splits"] = float64(len(splits))
	return decode.Seconds() + columns.Seconds(), nil
}

// driverRun is what one replayed driver call produced and how its time
// divided.
type driverRun struct {
	start    time.Time
	wall     time.Duration
	jobs     []*jobTiming
	centers  [][]float64
	counters map[string]int64
	digest   string
	rounds   int
	roundDur time.Duration
	// multi and evaluate split a multi-k-means run.
	multi, evaluate time.Duration
}

// waves is the time the run's jobs spent in their map and reduce waves.
func (d *driverRun) waves() float64 {
	var s float64
	for _, j := range d.jobs {
		s += j.mapEnd.Sub(j.mapStart).Seconds() + j.reduceEnd.Sub(j.reduceStart).Seconds()
	}
	return s
}

// report derives the engine and driver metrics.
func (d *driverRun) report(L map[string]float64) {
	var mapS, reduceS, jobS float64
	var tasks, shuffleBytes, shuffleRecords, mapOut, combIn, combOut int64
	for _, j := range d.jobs {
		mapS += j.mapEnd.Sub(j.mapStart).Seconds()
		reduceS += j.reduceEnd.Sub(j.reduceStart).Seconds()
		jobS += j.reduceEnd.Sub(j.start).Seconds()
		tasks += int64(j.mapTasks)
		shuffleBytes += j.counters[mr.CounterShuffleBytes]
		shuffleRecords += j.counters[mr.CounterShuffleRecords]
		mapOut += j.counters[mr.CounterMapOutputRecords]
		combIn += j.counters[mr.CounterCombineInput]
		combOut += j.counters[mr.CounterCombineOutput]
	}
	L["mr.map_wave_s"] = mapS
	L["mr.reduce_wave_s"] = reduceS
	L["mr.job_overhead_s"] = jobS - mapS - reduceS
	L["mr.jobs"] = float64(len(d.jobs))
	L["mr.map_tasks"] = float64(tasks)
	L["mr.shuffle_bytes"] = float64(shuffleBytes)
	L["mr.shuffle_records"] = float64(shuffleRecords)
	L["mr.map_output_records"] = float64(mapOut)
	if combIn > 0 {
		L["mr.combine_ratio"] = float64(combOut) / float64(combIn)
	}
	L["core.run_s"] = d.wall.Seconds()
	L["core.rounds"] = float64(d.rounds)
	L["core.round_s"] = d.roundDur.Seconds()
	if len(d.jobs) > 0 {
		L["core.init_s"] = d.jobs[0].start.Sub(d.start).Seconds()
	}
	L["core.driver_s"] = d.wall.Seconds() - L["core.init_s"] - jobS
	L["core.distances"] = float64(d.counters[gmeansmr.CounterDistances])
	L["core.projections"] = float64(d.counters[core.CounterProjections])
	L["stats.ad_tests"] = float64(d.counters[gmeansmr.CounterADTests])
	L["dfs.dataset_reads"] = float64(d.counters[gmeansmr.CounterDatasetReads])
	L["kmeansmr.multi_s"] = d.multi.Seconds()
	L["kmeansmr.evaluate_s"] = d.evaluate.Seconds()
}

// replayDriver runs the facade's driver call for t — core.RunContext for
// G-means, kmeansmr.RunMulti + Evaluate + the elbow criterion for
// multi-k-means — with the facade's exact configuration, on env with its
// jobs routed through a timing wrapper around inner; points is the
// staged point count. tt, when non-nil, is the proc runner's timing
// transport; its RPC spans nest under the job in flight.
func replayDriver(ctx context.Context, t *trainSpec, env kmeansmr.Env, points int, seed int64, inner mr.TaskRunner, tt *timingTransport, rec *recorder, parent int64) (*driverRun, error) {
	sp := rec.start("driver", parent, 0)
	defer sp.end()
	tr := &timingRunner{inner: inner, rec: rec, parent: sp.id()}
	if tt != nil {
		tt.runner = tr
	}
	env.Runner = tr
	d := &driverRun{start: time.Now()}
	var centers [][]float64
	var counters map[string]int64
	if t.MultiK {
		// The facade caps the sweep at the staged point count.
		mcfg := kmeansmr.MultiConfig{
			Env: env, KMin: 1, KMax: min(t.KMax, points), KStep: 1, Iterations: t.Iterations,
			Seeding: kmeansmr.MultiSeedPlusPlus, Seed: seed,
		}
		mres, err := kmeansmr.RunMulti(mcfg)
		if err != nil {
			return nil, err
		}
		d.multi = time.Since(d.start)
		t0 := time.Now()
		if err := kmeansmr.Evaluate(mcfg, mres); err != nil {
			return nil, err
		}
		d.evaluate = time.Since(t0)
		var cs []criteria.Clustering
		for k := mcfg.KMin; k <= mcfg.KMax; k += mcfg.KStep {
			cs = append(cs, criteria.Clustering{K: k, Centers: mres.CentersByK[k], WCSS: mres.WCSSByK[k]})
		}
		chosen, err := criteria.ElbowK(cs)
		if err != nil {
			return nil, err
		}
		centers, counters = mres.CentersByK[chosen], mres.Counters.Snapshot()
		d.rounds = len(mres.IterationTimes)
		for _, it := range mres.IterationTimes {
			d.roundDur += it
		}
	} else {
		cfg := core.Config{Env: env, Seed: seed, Progress: func(it core.IterationStats, _ map[string]int64) {
			d.roundDur += it.Duration
		}}
		r, err := core.RunContext(ctx, cfg)
		if err != nil {
			return nil, err
		}
		centers, counters = r.Centers, r.Counters.Snapshot()
		d.rounds = r.Iterations
	}
	d.wall = time.Since(d.start)
	counters[gmeansmr.CounterDatasetReads] = env.FS.DatasetReads()
	d.centers, d.counters, d.jobs = centers, counters, tr.jobs
	d.digest = resultDigest(centers, counters)
	return d, nil
}

// jobTiming is one MapReduce job as the timing runner saw it.
type jobTiming struct {
	name                                            string
	start, mapStart, mapEnd, reduceStart, reduceEnd time.Time
	mapTasks                                        int
	counters                                        map[string]int64
	span                                            span
}

// timingRunner is an mr.TaskRunner that times each job's waves and reads
// its counters after the reduce wave, delegating the work to inner. Jobs
// run one at a time, as every driver in the program runs them.
type timingRunner struct {
	inner  mr.TaskRunner
	rec    *recorder
	parent int64

	mu   sync.Mutex
	jobs []*jobTiming
}

func (t *timingRunner) current() *jobTiming {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[len(t.jobs)-1]
}

// jobSpan returns the span of the job in flight, for RPCs to nest under.
func (t *timingRunner) jobSpan() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.jobs) == 0 {
		return t.parent
	}
	return t.jobs[len(t.jobs)-1].span.id()
}

func (t *timingRunner) NewShuffle(numReducers, numMapTasks int) mr.ShuffleStore {
	j := &jobTiming{start: time.Now(), mapTasks: numMapTasks, span: t.rec.start("job", t.parent, 0)}
	t.mu.Lock()
	t.jobs = append(t.jobs, j)
	t.mu.Unlock()
	return t.inner.NewShuffle(numReducers, numMapTasks)
}

func (t *timingRunner) RunMapPhase(ctx context.Context, j *mr.Job, splits []dfs.Split, numReducers int, partition mr.Partitioner, counters *mr.Counters, shuffle mr.ShuffleStore) error {
	cur := t.current()
	cur.name = j.Name
	sp := t.rec.start("map-wave:"+j.Name, cur.span.id(), 0)
	cur.mapStart = time.Now()
	err := t.inner.RunMapPhase(ctx, j, splits, numReducers, partition, counters, shuffle)
	cur.mapEnd = time.Now()
	sp.end()
	return err
}

func (t *timingRunner) RunReducePhase(ctx context.Context, j *mr.Job, numReducers int, counters *mr.Counters, shuffle mr.ShuffleStore) ([][]mr.KV, error) {
	cur := t.current()
	sp := t.rec.start("reduce-wave:"+j.Name, cur.span.id(), 0)
	cur.reduceStart = time.Now()
	out, err := t.inner.RunReducePhase(ctx, j, numReducers, counters, shuffle)
	cur.reduceEnd = time.Now()
	sp.end()
	cur.counters = counters.Snapshot()
	cur.span.end()
	return out, err
}

// rpcStat accumulates the master-side RPCs of one kind.
type rpcStat struct {
	n                   int64
	busy                time.Duration
	reqBytes, respBytes int64
}

// timingTransport is an http.RoundTripper that times the proc runner's
// RPCs by kind — from the request until its reply body is read to the end
// or closed — and counts their bytes.
type timingTransport struct {
	inner  http.RoundTripper
	rec    *recorder
	runner *timingRunner

	mu        sync.Mutex
	stats     map[string]*rpcStat
	firstTask time.Time
	seq       int64
}

// rpcKind classifies a worker endpoint (docs/wire.md).
func rpcKind(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/task/"):
		return "task"
	case path == "/v1/fs/push":
		return "push"
	case path == "/v1/ping":
		return "heartbeat"
	}
	return "other"
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := rpcKind(req.URL.Path)
	parent := int64(0)
	if t.runner != nil {
		parent = t.runner.jobSpan()
	}
	t.mu.Lock()
	t.seq++
	id := t.seq
	t.mu.Unlock()
	sp := t.rec.start("rpc:"+req.URL.Path, parent, id)
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.done(kind, start, req.ContentLength, 0, sp)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, finish: func(n int64) { t.done(kind, start, req.ContentLength, n, sp) }}
	return resp, nil
}

func (t *timingTransport) done(kind string, start time.Time, reqBytes, respBytes int64, sp span) {
	sp.end()
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats[kind]
	if s == nil {
		s = &rpcStat{}
		t.stats[kind] = s
	}
	s.n++
	s.busy += now.Sub(start)
	s.reqBytes += max(reqBytes, 0)
	s.respBytes += respBytes
	if kind == "task" && t.firstTask.IsZero() {
		t.firstTask = now
	}
}

// report writes the transport metrics; jobStart is when the first job
// began, so mrdist.first_task_s covers worker spawn and the first push.
func (t *timingTransport) report(L map[string]float64, jobStart time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	get := func(kind string) rpcStat {
		if s := t.stats[kind]; s != nil {
			return *s
		}
		return rpcStat{}
	}
	task, push, hb := get("task"), get("push"), get("heartbeat")
	if !t.firstTask.IsZero() {
		L["mrdist.first_task_s"] = t.firstTask.Sub(jobStart).Seconds()
	}
	L["mrdist.push_bytes"] = float64(push.reqBytes)
	L["mrdist.push_s"] = push.busy.Seconds()
	L["mrdist.task_rpcs"] = float64(task.n)
	L["mrdist.task_rpc_s"] = task.busy.Seconds()
	L["mrdist.task_req_bytes"] = float64(task.reqBytes)
	L["mrdist.task_resp_bytes"] = float64(task.respBytes)
	L["mrdist.heartbeat_rpcs"] = float64(hb.n)
}

// timedBody counts a reply body's bytes and reports once when it is read
// to the end or closed.
type timedBody struct {
	io.ReadCloser
	n      int64
	once   sync.Once
	finish func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.finish(b.n) })
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.finish(b.n) })
	return err
}

// kernelPasses is how many times the kernel replay assigns the whole
// dataset; the median pass is reported.
const kernelPasses = 3

// replayKernel assigns every point of the staged dataset to the run's
// final centers with vec.NearestBatch, split by split on one goroutine,
// and derives the kernel's cost per distance and its estimated share of
// the run. It returns the final clusters' sizes.
func replayKernel(env kmeansmr.Env, d *driverRun, L map[string]float64, rec *recorder, parent int64) ([]int64, error) {
	sp := rec.start("vec.NearestBatch", parent, 0)
	defer sp.end()
	splits, err := env.FS.Splits(env.Input)
	if err != nil {
		return nil, err
	}
	var cols []*dfs.ColumnarSplit
	n := 0
	for _, s := range splits {
		ps, err := env.FS.OpenSplitPoints(s, env.Dim)
		if err != nil {
			return nil, err
		}
		cols = append(cols, ps.Columns())
		n += ps.Len()
	}
	k := len(d.centers)
	sizes := make([]int64, k)
	var scratch vec.BatchScratch
	var passes []float64
	for pass := 0; pass < kernelPasses; pass++ {
		var busy time.Duration
		for _, c := range cols {
			idx := make([]int32, c.Len())
			dist := make([]float64, c.Len())
			t0 := time.Now()
			vec.NearestBatch(d.centers, c.Flat(), c.Len(), idx, dist, &scratch)
			busy += time.Since(t0)
			if pass == 0 {
				for _, i := range idx {
					if i >= 0 {
						sizes[i]++
					}
				}
			}
		}
		passes = append(passes, float64(busy.Nanoseconds()))
	}
	nsPerDist := median(passes) / float64(n*k)
	L["vec.ns_per_dist"] = nsPerDist
	est := L["core.distances"] * nsPerDist / 1e9
	L["vec.kernel_est_s"] = est
	// The map waves run the kernel on every CPU at once.
	parallel := min(env.Cluster.MapCapacity(), runtime.GOMAXPROCS(0))
	if d.wall > 0 {
		L["vec.kernel_share"] = est / (d.wall.Seconds() * float64(parallel))
	}
	return sizes, nil
}

// replayADTests times stats.ADTest on Gaussian samples the size of the
// run's median final cluster — the sample a reducer-side test of such a
// cluster projects — and estimates the run's total test time from the
// ad-tests counter. A run with no tests (multi-k-means) reports zeros.
func replayADTests(sizes []int64, seed int64, L map[string]float64, rec *recorder, parent int64) {
	tests := L["stats.ad_tests"]
	var nonEmpty []float64
	for _, s := range sizes {
		if s > 0 {
			nonEmpty = append(nonEmpty, float64(s))
		}
	}
	if tests == 0 || len(nonEmpty) == 0 {
		return
	}
	sp := rec.start("stats.ADTest", parent, 0)
	defer sp.end()
	m := int(median(nonEmpty))
	rng := rand.New(rand.NewSource(seed))
	sample := make([]float64, m)
	for i := range sample {
		sample[i] = rng.NormFloat64()
	}
	reps := min(max(2_000_000/max(m, 1), 20), 2000)
	xs := make([]float64, m)
	var us []float64
	for i := 0; i < reps; i++ {
		copy(xs, sample)
		t0 := time.Now()
		_, _ = stats.ADTest(xs, 0.0001, core.DefaultMinTestSamples)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	per := median(us)
	L["stats.us_per_test"] = per
	L["stats.ad_est_s"] = tests * per / 1e6
}
