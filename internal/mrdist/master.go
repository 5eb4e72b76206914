package mrdist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/obs"
	"gmeansmr/internal/retry"
)

// Metric names the runner maintains in its obs.Registry. Tests and
// dashboards read them; docs/wire.md lists their meanings.
const (
	MetricTasksDispatched = "mrdist_tasks_dispatched_total"
	MetricTasksCompleted  = "mrdist_tasks_completed_total"
	MetricTaskRetries     = "mrdist_task_retries_total"
	MetricSpeculative     = "mrdist_speculative_tasks_total"
	MetricWorkerDeaths    = "mrdist_worker_deaths_total"
	// MetricRetryBackoffs counts backoff sleeps scheduled before requeues.
	MetricRetryBackoffs = "mrdist_retry_backoffs_total"
	// MetricRetryExhausted counts operations that spent their whole
	// attempt or elapsed budget.
	MetricRetryExhausted = "mrdist_retry_exhausted_total"
	// MetricRetryAborts counts operations stopped by caller-side
	// cancellation (never blamed on a worker).
	MetricRetryAborts = "mrdist_retry_aborts_total"
	// MetricBreakerOpens counts closed→open breaker transitions.
	MetricBreakerOpens = "mrdist_breaker_opens_total"
	// MetricBreakerState is the per-worker breaker gauge family; the
	// worker id travels as a label (see breakerGaugeName). Values follow
	// retry.BreakerState: 0 closed, 1 half-open, 2 open.
	MetricBreakerState = "mrdist_breaker_state"
)

func breakerGaugeName(workerID int) string {
	return fmt.Sprintf(`%s{worker="%d"}`, MetricBreakerState, workerID)
}

// ErrBackendUnavailable reports that the distributed backend cannot make
// progress at all: workers failed to spawn, or every worker is dead. The
// facade's fallback mode detects it with errors.Is and downgrades to the
// local backend.
var ErrBackendUnavailable = errors.New("mrdist: backend unavailable")

// Options configures a ProcRunner. The zero value works: it self-execs the
// current binary as the worker (which must call MaybeWorker early in main)
// and uses conservative failure-handling defaults.
type Options struct {
	// WorkerEnv returns extra environment entries for worker i. Tests use
	// it to inject faults (EnvTestSlowMS, faultinject.EnvScenario).
	WorkerEnv func(i int) []string
	// LogDir receives one stderr log per worker (worker-<i>.log), inside
	// a fresh run-* subdirectory so sequential runners sharing the dir
	// never clobber each other's logs. Empty selects $MRDIST_LOG_DIR,
	// then a temp dir.
	LogDir string
	// Registry receives the runner's metrics; nil allocates a private one.
	Registry *obs.Registry
	// Retry is the uniform failure policy: per-RPC deadline, jittered
	// backoff, elapsed budget, per-worker breaker. Zero fields take the
	// retry package defaults. Only non-deterministic failures (worker
	// death, transport, 5xx, corrupt frames) consume attempts; a
	// deterministic task error fails the job at once, exactly as in the
	// local backend.
	Retry retry.Policy
	// Seed drives backoff jitter; a fixed seed replays a schedule's
	// delays exactly, which the chaos harness relies on. Zero is a valid
	// (deterministic) seed.
	Seed int64
	// Transport, when non-nil, underlies every master-side HTTP client —
	// the seam the fault-injection plane plugs into. Nil means the
	// default transport.
	Transport http.RoundTripper
	// HeartbeatInterval is the master→worker ping period. Default 500ms.
	HeartbeatInterval time.Duration
	// SpeculateAfter is how long the last lone task of a wave may run
	// before the master launches a speculative duplicate on an idle
	// worker (first completion wins). Default 2s; zero selects the
	// default, negative disables speculation.
	SpeculateAfter time.Duration
}

func (o Options) withDefaults() Options {
	if o.LogDir == "" {
		o.LogDir = os.Getenv("MRDIST_LOG_DIR")
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	o.Retry = o.Retry.WithDefaults()
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.SpeculateAfter == 0 {
		o.SpeculateAfter = 2 * time.Second
	}
	return o
}

// workerHandle is the master's view of one worker process.
type workerHandle struct {
	id   int
	addr string
	cmd  *exec.Cmd
	// stdin is held open for the worker's whole life; closing it is the
	// shutdown signal (the worker exits on stdin EOF, so master death
	// reaps the fleet even without an explicit Close).
	stdin io.WriteCloser
	dead  atomic.Bool
	// exited is closed by the worker's reaper, the one goroutine that
	// waits for the process, once it has exited.
	exited chan struct{}

	// breaker debounces blamed failures: a worker is not declared
	// unschedulable on one transport blip, and an open breaker re-admits
	// a probe after cooldown instead of condemning a live process.
	// Death itself stays with the heartbeat and process exit.
	breaker *retry.Breaker

	pushMu sync.Mutex
	pushed map[splitKey]bool // splits pushed to this worker
}

// ProcRunner is the distributed mr.TaskRunner: it spawns one worker
// process per cluster node (lazily, on the first job) and schedules map
// and reduce tasks onto them under one uniform retry policy (per-RPC
// deadlines, jittered backoff, per-worker breakers) with speculative
// re-execution of stragglers. Results are bit-identical to
// mr.LocalRunner: the same task code runs on the same points, shipped to
// each worker split by split as it first needs them; the shuffle merge
// order is still map-task id, and exactly one completion per task merges
// counters.
//
// A ProcRunner may be shared across the chained jobs of a run (the fleet
// is reused); it is safe for use by one job at a time. Close terminates
// the fleet.
type ProcRunner struct {
	opts   Options
	policy retry.Policy
	client *http.Client

	rngMu sync.Mutex
	rng   *rand.Rand

	mu         sync.Mutex
	workers    []*workerHandle
	byAddr     map[string]*workerHandle
	logDir     string
	closed     bool
	stopHB     chan struct{}
	hbStarted  bool
	recoveryMu sync.Mutex

	jobSeq atomic.Int64
}

// NewProcRunner returns a runner; no processes start until the first job.
func NewProcRunner(opts Options) *ProcRunner {
	opts = opts.withDefaults()
	return &ProcRunner{
		opts:   opts,
		policy: opts.Retry,
		client: &http.Client{Transport: opts.Transport},
		rng:    rand.New(rand.NewSource(opts.Seed)),
		byAddr: make(map[string]*workerHandle),
	}
}

// backoff draws a jittered delay for the given failure count; safe for
// concurrent callers (a recovery wave runs inside the reduce wave that
// started it, and both draw from the seeded source).
func (r *ProcRunner) backoff(failures int) time.Duration {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return r.policy.Backoff(failures, r.rng)
}

// Registry returns the runner's metric registry.
func (r *ProcRunner) Registry() *obs.Registry { return r.opts.Registry }

// WorkerPIDs returns the OS pids of the live workers, in node order.
// Fault-injection tests use it to kill a worker mid-wave.
func (r *ProcRunner) WorkerPIDs() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	pids := make([]int, 0, len(r.workers))
	for _, w := range r.workers {
		if !w.dead.Load() && w.cmd.Process != nil {
			pids = append(pids, w.cmd.Process.Pid)
		}
	}
	return pids
}

// Close shuts down the worker fleet. The runner is unusable afterwards.
func (r *ProcRunner) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	if r.hbStarted {
		close(r.stopHB)
	}
	workers := r.workers
	r.mu.Unlock()
	for _, w := range workers {
		w.stdin.Close() // EOF → worker exits on its own
	}
	for _, w := range workers {
		select {
		case <-w.exited:
		case <-time.After(2 * time.Second):
			if w.cmd.Process != nil {
				w.cmd.Process.Kill()
			}
			<-w.exited
		}
	}
}

// ensureWorkers grows the fleet to n workers and starts the heartbeat.
// A spawn failure is a backend-unavailability: the fleet never came up.
func (r *ProcRunner) ensureWorkers(n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("mrdist: runner is closed")
	}
	if r.logDir == "" {
		if r.opts.LogDir == "" {
			dir, err := os.MkdirTemp("", "mrdist-logs-*")
			if err != nil {
				return err
			}
			r.logDir = dir
		} else {
			if err := os.MkdirAll(r.opts.LogDir, 0o755); err != nil {
				return err
			}
			dir, err := os.MkdirTemp(r.opts.LogDir, "run-*")
			if err != nil {
				return err
			}
			r.logDir = dir
		}
	}
	for len(r.workers) < n {
		w, err := r.spawnWorker(len(r.workers))
		if err != nil {
			return fmt.Errorf("mrdist: spawning worker %d: %v: %w", len(r.workers), err, ErrBackendUnavailable)
		}
		r.workers = append(r.workers, w)
		r.byAddr[w.addr] = w
	}
	if !r.hbStarted {
		r.stopHB = make(chan struct{})
		r.hbStarted = true
		go r.heartbeat()
	}
	return nil
}

func (r *ProcRunner) spawnWorker(id int) (*workerHandle, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate worker binary: %w", err)
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), EnvWorkerMode+"=1")
	if r.opts.WorkerEnv != nil {
		cmd.Env = append(cmd.Env, r.opts.WorkerEnv(id)...)
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(r.logDir, fmt.Sprintf("worker-%d.log", id)))
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	logFile.Close() // the child holds its own descriptor now

	// The worker announces "MRWORKER READY <addr>" as its first stdout
	// line; give it a bounded window to come up.
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := cutPrefix(line, readyPrefix); ok {
				addrCh <- rest
				// Keep draining so the child never blocks on stdout.
				for sc.Scan() {
				}
				return
			}
		}
		errCh <- fmt.Errorf("worker exited before announcing readiness (see %s)", filepath.Join(r.logDir, fmt.Sprintf("worker-%d.log", id)))
	}()
	select {
	case addr := <-addrCh:
		w := &workerHandle{id: id, addr: addr, cmd: cmd, stdin: stdin, exited: make(chan struct{}), pushed: make(map[splitKey]bool)}
		reg := r.opts.Registry
		stateGauge := reg.Gauge(breakerGaugeName(id))
		stateGauge.Set(int64(retry.BreakerClosed))
		w.breaker = retry.NewBreaker(r.policy)
		w.breaker.OnOpen = func() { reg.Counter(MetricBreakerOpens).Inc() }
		w.breaker.OnState = func(s retry.BreakerState) { stateGauge.Set(int64(s)) }
		go r.reap(w)
		return w, nil
	case err := <-errCh:
		cmd.Process.Kill()
		cmd.Wait()
		return nil, err
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("worker did not become ready within 15s")
	}
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return "", false
}

// reap waits for w's process to exit, the only Wait on it, and then
// closes w.exited. An exit the runner did not ask for is a death,
// declared at once rather than after the heartbeat's misses.
func (r *ProcRunner) reap(w *workerHandle) {
	w.cmd.Wait()
	close(w.exited)
	r.mu.Lock()
	closing := r.closed
	r.mu.Unlock()
	if !closing {
		r.markDead(w)
	}
}

// markDead declares a worker failed: no further dispatch, process killed
// (its reaper collects it). Idempotent.
func (r *ProcRunner) markDead(w *workerHandle) {
	if w == nil || w.dead.Swap(true) {
		return
	}
	r.opts.Registry.Counter(MetricWorkerDeaths).Inc()
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
}

// liveCount reports how many workers are not dead (breaker state aside).
func (r *ProcRunner) liveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.workers {
		if !w.dead.Load() {
			n++
		}
	}
	return n
}

// heartbeatMisses is how many consecutive failed pings declare a worker
// dead.
const heartbeatMisses = 3

// heartbeat pings every worker; heartbeatMisses consecutive failures mark
// it dead. Tasks in flight on a dead worker fail their RPCs and requeue.
// The reaper declares the death of a worker whose process exited; the
// heartbeat catches one that hangs. Breakers only gate scheduling.
func (r *ProcRunner) heartbeat() {
	client := &http.Client{Timeout: r.opts.HeartbeatInterval, Transport: r.opts.Transport}
	misses := make(map[*workerHandle]int)
	tick := time.NewTicker(r.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.stopHB:
			return
		case <-tick.C:
		}
		r.mu.Lock()
		workers := append([]*workerHandle(nil), r.workers...)
		r.mu.Unlock()
		for _, w := range workers {
			if w.dead.Load() {
				continue
			}
			resp, err := client.Get("http://" + w.addr + "/v1/ping")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if err == nil && resp.StatusCode == http.StatusOK {
				misses[w] = 0
				continue
			}
			misses[w]++
			if misses[w] >= heartbeatMisses {
				r.markDead(w)
			}
		}
	}
}

// procShuffle is the distributed ShuffleStore: it records *where* each map
// task's winning output lives rather than the runs themselves, plus what a
// later recovery needs to re-create lost outputs.
type procShuffle struct {
	jobID       string
	numReducers int

	mu  sync.Mutex
	loc []string // winning worker address per map task

	splits []dfs.Split // retained for map-output recovery
}

// NumMapTasks implements mr.ShuffleStore.
func (s *procShuffle) NumMapTasks() int { return len(s.loc) }

func (s *procShuffle) setLocation(t int, addr string) {
	s.mu.Lock()
	s.loc[t] = addr
	s.mu.Unlock()
}

// NewShuffle implements mr.TaskRunner.
func (r *ProcRunner) NewShuffle(numReducers, numMapTasks int) mr.ShuffleStore {
	return &procShuffle{
		jobID:       fmt.Sprintf("j%d", r.jobSeq.Add(1)),
		numReducers: numReducers,
		loc:         make([]string, numMapTasks),
	}
}

// fetchFailError reports a reduce task's failed shuffle pull from addr.
type fetchFailError struct{ addr string }

func (e fetchFailError) Error() string {
	return fmt.Sprintf("mrdist: shuffle fetch from %s failed", e.addr)
}

// postWire POSTs a GMWR body under ctx and returns the response body,
// read into one buffer sized from its Content-Length (see readBody).
// Failures are pre-marked for retry.Classify: transport and body-read
// errors and 5xx responses are transient with the peer blamed (the final
// say on caller-side cancellation belongs to Classify against the *job*
// context — a mark made here never turns a clean shutdown into worker
// blame); non-5xx error statuses are deterministic and permanent.
func postWire(ctx context.Context, c *http.Client, addr, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-gmwr")
	resp, err := c.Do(req)
	if err != nil {
		return nil, retry.Transient(err, true)
	}
	defer resp.Body.Close()
	b, err := readBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, retry.Transient(err, true)
	}
	if resp.StatusCode != http.StatusOK {
		herr := fmt.Errorf("mrdist: %s%s: HTTP %d: %s", addr, path, resp.StatusCode, bytes.TrimSpace(b))
		if resp.StatusCode >= 500 {
			return nil, retry.Transient(herr, true)
		}
		return nil, herr
	}
	return b, nil
}

// refused types a task request a worker answered with a non-5xx error,
// the only failure postWire leaves unmarked. The master encodes its
// requests from a validated job, so the worker cannot build or run that
// job: a *BuildError, as Build returns on the master, and the job's
// fault, not the worker's.
func refused(j *mr.Job, err error) error {
	if retry.Classify(nil, err) != retry.Permanent {
		return err
	}
	return &BuildError{Job: j.Name, Kind: j.Spec.Kind, Err: err}
}

// pushSplit ships the points of key's split to w unless w already holds
// them. They come from the master's decode cache through
// dfs.ReplicaSplit, which ticks no read accounting, so the paper's cost
// model sees the same dataset-read counts on both backends. A split the
// master cannot read fails the task, as the local runner's open does.
func (r *ProcRunner) pushSplit(ctx context.Context, j *mr.Job, taskID int, key splitKey, w *workerHandle) error {
	w.pushMu.Lock()
	have := w.pushed[key]
	w.pushMu.Unlock()
	if have {
		return nil
	}
	ps, err := j.FS.ReplicaSplit(key.split(), j.PointDim)
	if err != nil {
		return &mr.TaskError{Job: j.Name, Kind: mr.MapTask, TaskID: taskID, Err: err}
	}
	var e Encoder
	e.Begin()
	encodeSplitKey(&e, key)
	e.U32(uint32(ps.Dim())).I64(ps.Bytes()).Vec(ps.Flat())
	body, err := postWire(ctx, r.client, w.addr, "/v1/fs/push", e.Bytes())
	if err != nil {
		return err
	}
	if d := NewDecoder(body); d.U8() != statusOK || d.Err() != nil {
		return retry.Transient(fmt.Errorf("mrdist: push of %s split %d to %s: corrupt reply", key.path, key.index, w.addr), true)
	}
	w.pushMu.Lock()
	w.pushed[key] = true
	w.pushMu.Unlock()
	return nil
}

// execMapRPC runs one map task on w, pushing its split first if w lacks
// it, and returns the task's counter deltas. The output runs stay on the
// worker for shuffle pull.
func (r *ProcRunner) execMapRPC(ctx context.Context, j *mr.Job, sh *procShuffle, taskID int, numReducers int, w *workerHandle) (*mr.Counters, error) {
	sp := sh.splits[taskID]
	key := splitKey{path: sp.Path, version: j.FS.Version(sp.Path), index: sp.Index, start: sp.Start, end: sp.End}
	if err := r.pushSplit(ctx, j, taskID, key, w); err != nil {
		return nil, err
	}
	var e Encoder
	e.Begin()
	encodeTaskRequest(&e, sh.jobID, j, numReducers)
	e.U32(uint32(taskID))
	encodeSplitKey(&e, key)
	body, err := postWire(ctx, r.client, w.addr, "/v1/task/map", e.Bytes())
	if err != nil {
		return nil, refused(j, err)
	}
	d := NewDecoder(body)
	switch st := d.U8(); st {
	case statusOK:
		counters := mr.NewCounters()
		if !d.MergeCounters(counters) {
			// A 200 whose frame will not decode is a corrupt reply, not a
			// deterministic failure: retry, suspecting the sender.
			return nil, retry.Transient(fmt.Errorf("mrdist: map task %d on %s: corrupt reply: %w", taskID, w.addr, d.Err()), true)
		}
		return counters, nil
	case statusStale:
		// The worker lacks the split (a newer version of the file
		// replaced it) or holds it at another dim; forget it so the retry
		// pushes it again. Not the worker's fault.
		w.pushMu.Lock()
		delete(w.pushed, key)
		w.pushMu.Unlock()
		return nil, retry.Transient(fmt.Errorf("mrdist: %s lacks split %d of %s", w.addr, key.index, key.path), false)
	case statusTaskErr:
		return nil, decodeTaskErr(d, j.Name, w.addr)
	default:
		return nil, retry.Transient(fmt.Errorf("mrdist: map task %d on %s: unexpected status %d", taskID, w.addr, st), true)
	}
}

// decodeTaskErr reconstructs a deterministic task failure as the
// *mr.TaskError the local backend returns, with the cause's message. A
// frame that will not decode is a corrupt reply and retryable instead.
func decodeTaskErr(d *Decoder, jobName, addr string) error {
	kind := mr.TaskKind(d.Str())
	taskID := int(d.U32())
	msg := d.Str()
	if err := d.Err(); err != nil {
		return retry.Transient(fmt.Errorf("mrdist: corrupt task-error frame from %s: %w", addr, err), true)
	}
	return &mr.TaskError{Job: jobName, Kind: kind, TaskID: taskID, Err: errors.New(msg)}
}

// execReduceRPC runs one reduce task on w against the current map-output
// locations and returns its output and counter deltas.
func (r *ProcRunner) execReduceRPC(ctx context.Context, j *mr.Job, sh *procShuffle, p, numReducers int, w *workerHandle) ([]mr.KV, *mr.Counters, error) {
	sh.mu.Lock()
	locs := append([]string(nil), sh.loc...)
	sh.mu.Unlock()
	var e Encoder
	e.Begin()
	encodeTaskRequest(&e, sh.jobID, j, numReducers)
	e.U32(uint32(p)).U32(uint32(len(locs)))
	for _, addr := range locs {
		e.Str(addr)
	}
	body, err := postWire(ctx, r.client, w.addr, "/v1/task/reduce", e.Bytes())
	if err != nil {
		return nil, nil, refused(j, err)
	}
	d := NewDecoder(body)
	switch st := d.U8(); st {
	case statusOK:
		out := d.KVs()
		counters := mr.NewCounters()
		if !d.MergeCounters(counters) {
			return nil, nil, retry.Transient(fmt.Errorf("mrdist: reduce task %d on %s: corrupt reply: %w", p, w.addr, d.Err()), true)
		}
		return out, counters, nil
	case statusFetchFail:
		addr := d.Str()
		if err := d.Err(); err != nil {
			return nil, nil, retry.Transient(fmt.Errorf("mrdist: corrupt fetch-fail frame from %s: %w", w.addr, err), true)
		}
		return nil, nil, fetchFailError{addr: addr}
	case statusTaskErr:
		return nil, nil, decodeTaskErr(d, j.Name, w.addr)
	default:
		return nil, nil, retry.Transient(fmt.Errorf("mrdist: reduce task %d on %s: unexpected status %d", p, w.addr, st), true)
	}
}

// recoverMapOutputs re-runs, as one map wave, the map tasks whose
// winning outputs lived on dead workers, installing new locations; the
// wave's policy (slots, deadlines, backoff, breakers, speculation,
// elapsed budget) is every other wave's. Counters are NOT merged — the
// first completion of each task already was, and re-merging would break
// the bit-identical counter pin. Serialized; re-checks under the lock so
// concurrent reduce failures converge on one recovery. Each lost output
// counts as one task retry.
func (r *ProcRunner) recoverMapOutputs(ctx context.Context, j *mr.Job, sh *procShuffle, numReducers int) error {
	r.recoveryMu.Lock()
	defer r.recoveryMu.Unlock()
	var lost []int
	sh.mu.Lock()
	for t, addr := range sh.loc {
		w := r.workerAt(addr)
		if w == nil || w.dead.Load() {
			lost = append(lost, t)
		}
	}
	sh.mu.Unlock()
	r.opts.Registry.Counter(MetricTaskRetries).Add(int64(len(lost)))
	return r.runWave(ctx, j, "map-recovery", lost, j.Cluster.MapSlotsPerNode, j.Cluster.Nodes,
		func(ctx context.Context, taskID int, w *workerHandle) (func(), error) {
			if _, err := r.execMapRPC(ctx, j, sh, taskID, numReducers, w); err != nil {
				return nil, err
			}
			return func() { sh.setLocation(taskID, w.addr) }, nil
		})
}

func (r *ProcRunner) workerAt(addr string) *workerHandle {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byAddr[addr]
}

// RunMapPhase implements mr.TaskRunner: one map task per split, scheduled
// over the worker fleet. After the wave it verifies every winning output
// still lives on a live worker and recovers any that do not. The workers
// apply mr.DefaultPartitioner themselves, the only partition Job.Run
// passes.
func (r *ProcRunner) RunMapPhase(ctx context.Context, j *mr.Job, splits []dfs.Split, numReducers int, partition mr.Partitioner, counters *mr.Counters, shuffle mr.ShuffleStore) error {
	if j.Spec == nil {
		return fmt.Errorf("mr: job %q: the proc backend requires Job.Spec (a registered job kind)", j.Name)
	}
	if err := r.ensureWorkers(j.Cluster.Nodes); err != nil {
		return fmt.Errorf("mr: job %q: %w", j.Name, err)
	}
	sh := shuffle.(*procShuffle)
	sh.splits = splits

	err := r.runWave(ctx, j, "map-task", taskIDs(len(splits)), j.Cluster.MapSlotsPerNode, j.Cluster.Nodes,
		func(ctx context.Context, taskID int, w *workerHandle) (func(), error) {
			taskCounters, err := r.execMapRPC(ctx, j, sh, taskID, numReducers, w)
			if err != nil {
				return nil, err
			}
			return func() {
				taskCounters.MergeInto(counters)
				sh.setLocation(taskID, w.addr)
			}, nil
		})
	if err != nil {
		return err
	}
	// Workers may have died after completing tasks; make every winning
	// output reachable before the reduce wave starts pulling.
	return r.recoverMapOutputs(ctx, j, sh, numReducers)
}

// RunReducePhase implements mr.TaskRunner: one reduce task per partition,
// each pulling its runs from the map-output locations. A failed shuffle
// pull marks the source dead, recovers its outputs, and retries the
// reduce task.
func (r *ProcRunner) RunReducePhase(ctx context.Context, j *mr.Job, numReducers int, counters *mr.Counters, shuffle mr.ShuffleStore) ([][]mr.KV, error) {
	sh := shuffle.(*procShuffle)
	outputs := make([][]mr.KV, numReducers)
	var outMu sync.Mutex

	err := r.runWave(ctx, j, "reduce-task", taskIDs(numReducers), j.Cluster.ReduceSlotsPerNode, j.Cluster.Nodes,
		func(tryCtx context.Context, p int, w *workerHandle) (func(), error) {
			out, taskCounters, err := r.execReduceRPC(tryCtx, j, sh, p, numReducers, w)
			if ff, ok := err.(fetchFailError); ok {
				// The map output's host is gone: declare it dead, rebuild
				// the lost outputs elsewhere, then retry this reduce task.
				// Recovery runs under the job context, not this attempt's:
				// it spans its own RPCs with their own deadlines.
				r.markDead(r.workerAt(ff.addr))
				if rerr := r.recoverMapOutputs(ctx, j, sh, numReducers); rerr != nil {
					return nil, rerr
				}
				return nil, retry.Transient(ff, false)
			}
			if err != nil {
				return nil, err
			}
			return func() {
				outMu.Lock()
				outputs[p] = out
				outMu.Unlock()
				taskCounters.MergeInto(counters)
			}, nil
		})
	if err != nil {
		return nil, err
	}
	r.freeJob(sh.jobID)
	return outputs, nil
}

// freeJob asks every live worker to drop the job's retained map outputs.
// Best-effort with a short deadline per worker, so a hung worker cannot
// stall job completion.
func (r *ProcRunner) freeJob(jobID string) {
	r.mu.Lock()
	workers := append([]*workerHandle(nil), r.workers...)
	r.mu.Unlock()
	for _, w := range workers {
		if w.dead.Load() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+w.addr+"/v1/job/free?job="+jobID, nil)
		if err == nil {
			resp, err := r.client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		cancel()
	}
}

// taskIDs returns 0..n-1, the task ids of a whole phase.
func taskIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// waveEvent is one task completion (or failure) arriving at the wave
// loop, or a backoff timer returning a task to the pending queue. i is
// the task's position in the wave, not its id.
type waveEvent struct {
	i       int
	w       *workerHandle
	apply   func()
	err     error
	requeue bool // backoff elapsed: task i goes back to pending
}

// runWave schedules the given tasks over the fleet and blocks until all
// complete or the wave fails; exec and the task spans see each task's
// id. Guarantees:
//
//   - slot discipline: at most slotsPerWorker tasks in flight per worker;
//   - first-completion-wins: apply runs exactly once per task, so counters
//     merge exactly once and outputs are installed exactly once;
//   - per-attempt deadlines: every execution runs under the policy's
//     PerTryTimeout layered beneath the job context, so a hung worker
//     costs one attempt, not the wave;
//   - bounded, paced retry: a transient failure requeues the task after a
//     jittered backoff until the policy's attempt budget is exhausted;
//     blamed failures feed the worker's breaker, which gates scheduling
//     (death stays with the heartbeat);
//   - caller aborts: job-context cancellation stops the wave without
//     retry and without blaming whichever workers held tasks in flight;
//   - elapsed budget: the wave fails with a typed retry.ErrExhausted
//     error when the policy's MaxElapsed passes, so no fault scenario
//     can hang a run;
//   - straggler speculation: when only stragglers remain, the oldest
//     lone-copy task older than SpeculateAfter is duplicated onto an idle
//     worker, at most once per task;
//   - deterministic failures (task errors) fail the wave immediately,
//     matching the local backend.
func (r *ProcRunner) runWave(ctx context.Context, j *mr.Job, spanName string, tasks []int, slotsPerWorker, nodes int, exec func(ctx context.Context, taskID int, w *workerHandle) (func(), error)) error {
	n := len(tasks)
	if n == 0 {
		return nil
	}
	reg := r.opts.Registry
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	var (
		attempts   = make([]int, n)
		done       = make([]bool, n)
		running    = make([]int, n)
		startedAt  = make([]time.Time, n)
		speculated = make([]bool, n)
		doneCount  = 0
		inFlight   = 0
		waiting    = 0 // tasks sitting out a backoff
		slots      = make(map[*workerHandle]int)
		timers     []*time.Timer
		waveStart  = time.Now()
	)
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()
	// Buffered to the dispatch ceiling (completions plus requeues) so no
	// goroutine or timer can ever block sending its event — even events
	// arriving after an early error return just land in the buffer.
	events := make(chan waveEvent, n*(2*r.policy.MaxAttempts+3)+16)

	launch := func(i int, w *workerHandle) {
		if running[i] == 0 {
			startedAt[i] = time.Now()
		}
		running[i]++
		slots[w]++
		inFlight++
		reg.Counter(MetricTasksDispatched).Inc()
		attempt := attempts[i]
		go func() {
			span := j.Trace.StartSpan(spanName, "task").
				SetTID(int64(tasks[i])).
				SetArg("worker", w.id).
				SetArg("attempt", attempt)
			tryCtx, cancel := context.WithTimeout(ctx, r.policy.PerTryTimeout)
			apply, err := exec(tryCtx, tasks[i], w)
			cancel()
			span.End()
			events <- waveEvent{i: i, w: w, apply: apply, err: err}
		}()
	}

	// pickWorker prefers the task's home node (taskID mod nodes), then any
	// schedulable worker with a free slot. Breaker Allow is evaluated
	// last: a half-open breaker admits exactly one probe, and a granted
	// probe is always dispatched.
	pickWorker := func(i int) *workerHandle {
		r.mu.Lock()
		defer r.mu.Unlock()
		fleet := r.workers
		if len(fleet) > nodes {
			fleet = fleet[:nodes]
		}
		if len(fleet) == 0 {
			return nil
		}
		if w := fleet[tasks[i]%len(fleet)]; !w.dead.Load() && slots[w] < slotsPerWorker && w.breaker.Allow() {
			return w
		}
		for _, w := range fleet {
			if !w.dead.Load() && slots[w] < slotsPerWorker && w.breaker.Allow() {
				return w
			}
		}
		return nil
	}

	spec := time.NewTicker(r.opts.HeartbeatInterval)
	defer spec.Stop()

	var firstErr error
	for doneCount < n && firstErr == nil {
		// The wave's own elapsed budget: chaos scenarios must end in a
		// typed error, never a hang.
		if r.policy.MaxElapsed > 0 && time.Since(waveStart) > r.policy.MaxElapsed {
			reg.Counter(MetricRetryExhausted).Inc()
			firstErr = retry.Exhausted(fmt.Sprintf("mr: job %q: wave exceeded elapsed budget %v", j.Name, r.policy.MaxElapsed), nil)
			break
		}
		// Fill free slots from the pending queue.
		for len(pending) > 0 {
			w := pickWorker(pending[0])
			if w == nil {
				break
			}
			i := pending[0]
			pending = pending[1:]
			launch(i, w)
		}
		if inFlight == 0 && waiting == 0 {
			if len(pending) == 0 {
				break
			}
			if r.liveCount() == 0 {
				firstErr = fmt.Errorf("mr: job %q: all workers dead with %d tasks unfinished: %w", j.Name, len(pending), ErrBackendUnavailable)
				break
			}
			// Workers alive but breaker-gated: wait for a cooldown to
			// re-admit a probe (the ticker below wakes us).
		}
		select {
		case <-ctx.Done():
			reg.Counter(MetricRetryAborts).Inc()
			firstErr = fmt.Errorf("mr: job %q: %w", j.Name, ctx.Err())
		case <-spec.C:
			if r.opts.SpeculateAfter <= 0 || len(pending) > 0 {
				break
			}
			// Tail of the wave: duplicate the oldest lone straggler.
			best, bestAge := -1, r.opts.SpeculateAfter
			for i := 0; i < n; i++ {
				if !done[i] && running[i] == 1 && !speculated[i] {
					if age := time.Since(startedAt[i]); age >= bestAge {
						best, bestAge = i, age
					}
				}
			}
			if best >= 0 {
				if w := pickWorker(best); w != nil {
					speculated[best] = true
					reg.Counter(MetricSpeculative).Inc()
					launch(best, w)
				}
			}
		case ev := <-events:
			if ev.requeue {
				waiting--
				if !done[ev.i] {
					pending = append(pending, ev.i)
				}
				break
			}
			inFlight--
			slots[ev.w]--
			running[ev.i]--
			switch {
			case ev.err == nil && !done[ev.i]:
				done[ev.i] = true
				doneCount++
				reg.Counter(MetricTasksCompleted).Inc()
				ev.w.breaker.Success()
				ev.apply()
			case ev.err == nil || done[ev.i]:
				// Speculative loser (either outcome): drop silently.
				if ev.err == nil {
					ev.w.breaker.Success()
				}
			default:
				class := retry.Classify(ctx, ev.err)
				switch class {
				case retry.CallerAbort:
					reg.Counter(MetricRetryAborts).Inc()
					cerr := ctx.Err()
					if cerr == nil {
						cerr = ev.err
					}
					firstErr = fmt.Errorf("mr: job %q: %w", j.Name, cerr)
				case retry.Permanent:
					firstErr = ev.err
				case retry.TransientBlamed, retry.TransientBlameless:
					if class == retry.TransientBlamed {
						ev.w.breaker.Failure()
					}
					attempts[ev.i]++
					if attempts[ev.i] >= r.policy.MaxAttempts {
						reg.Counter(MetricRetryExhausted).Inc()
						firstErr = retry.Exhausted(fmt.Sprintf("mr: job %q: task %d failed %d attempts", j.Name, tasks[ev.i], attempts[ev.i]), ev.err)
						break
					}
					if running[ev.i] == 0 {
						reg.Counter(MetricTaskRetries).Inc()
						delay := r.backoff(attempts[ev.i])
						if delay <= 0 {
							pending = append(pending, ev.i)
						} else {
							reg.Counter(MetricRetryBackoffs).Inc()
							waiting++
							i := ev.i
							timers = append(timers, time.AfterFunc(delay, func() {
								events <- waveEvent{i: i, requeue: true}
							}))
						}
					}
				}
			}
		}
	}
	// Drain in-flight tasks so no goroutine outlives the wave — the same
	// guarantee the local runner's WaitGroup gives. Their results are
	// discarded (the wave already failed, or they are speculative losers
	// whose winner already applied); requeue timer events are ignored.
	for inFlight > 0 {
		ev := <-events
		if ev.requeue {
			continue
		}
		inFlight--
		if firstErr == nil && ev.err == nil && !done[ev.i] {
			done[ev.i] = true
			doneCount++
			reg.Counter(MetricTasksCompleted).Inc()
			ev.apply()
		}
	}
	return firstErr
}

// Compile-time check.
var _ mr.TaskRunner = (*ProcRunner)(nil)
