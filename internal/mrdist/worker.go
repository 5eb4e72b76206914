package mrdist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/faultinject"
	"gmeansmr/internal/mr"
)

// Environment contract between master and worker processes.
const (
	// EnvWorkerMode, when set to "1", tells MaybeWorker to run the worker
	// loop instead of the surrounding command's normal main.
	EnvWorkerMode = "GMEANSMR_MRWORKER"
	// EnvTestSlowMS injects an artificial per-map-task delay (milliseconds)
	// into a worker — the straggler fault used by the speculation tests.
	EnvTestSlowMS = "MRDIST_TEST_SLOW_MS"
)

// Response status bytes shared by the task endpoints.
const (
	statusOK        = 0 // payload follows
	statusTaskErr   = 1 // deterministic task failure: fails the job
	statusFetchFail = 2 // reduce could not pull a map output: retryable
	statusStale     = 3 // worker lacks the task's split: push it and retry
)

// readyPrefix precedes the listen address on the worker's first stdout
// line; the master parses it during spawn.
const readyPrefix = "MRWORKER READY "

// Worker is one mrdist worker process: the input splits the master pushed
// to it as points, completed map outputs awaiting shuffle pull, and the
// HTTP surface the master and peer workers drive. See docs/wire.md for the
// protocol.
type Worker struct {
	addr string // own base address, e.g. "127.0.0.1:41234"

	slowMS int // EnvTestSlowMS fault injection

	mu     sync.Mutex
	splits map[splitKey]*dfs.PointSplit // pushed input splits
	jobs   map[string]*jobState         // live map outputs per job id

	client *http.Client // for peer shuffle pulls
}

// splitKey names one split of one version of an input file. The master
// records the keys it pushed to each worker, and a map task names its
// split by the same key.
type splitKey struct {
	path       string
	version    int64
	index      int
	start, end int64
}

func (k splitKey) split() dfs.Split {
	return dfs.Split{Path: k.path, Index: k.index, Start: k.start, End: k.end}
}

func encodeSplitKey(e *Encoder, k splitKey) {
	e.Str(k.path).I64(k.version).U32(uint32(k.index)).I64(k.start).I64(k.end)
}

func decodeSplitKey(d *Decoder) splitKey {
	return splitKey{path: d.Str(), version: d.I64(), index: int(d.U32()), start: d.I64(), end: d.I64()}
}

// jobState holds one job's map outputs on this worker: parts[taskID][p] is
// the combined, key-sorted run map task taskID produced for partition p.
type jobState struct {
	mu    sync.Mutex
	parts map[int][][]mr.KV
}

// NewWorker returns a worker that holds no splits yet. Tests drive it
// directly; processes use MaybeWorker.
func NewWorker() *Worker {
	w := &Worker{
		splits: make(map[splitKey]*dfs.PointSplit),
		jobs:   make(map[string]*jobState),
		client: &http.Client{},
	}
	if ms, err := strconv.Atoi(os.Getenv(EnvTestSlowMS)); err == nil && ms > 0 {
		w.slowMS = ms
	}
	return w
}

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/ping", w.handlePing)
	mux.HandleFunc("POST /v1/fs/push", w.handlePush)
	mux.HandleFunc("POST /v1/task/map", w.handleMap)
	mux.HandleFunc("POST /v1/task/reduce", w.handleReduce)
	mux.HandleFunc("POST /v1/shuffle", w.handleShuffle)
	mux.HandleFunc("POST /v1/job/free", w.handleFree)
	return mux
}

// MaybeWorker turns the current process into an mrdist worker when the
// master spawned it as one (EnvWorkerMode set). It never returns in that
// case: the worker serves until its stdin closes — the master holds the
// write end of the pipe, so master death reaps the worker — then exits.
// Binaries that can act as workers (the CLIs, test binaries) call this
// first thing in main / TestMain: the master re-executes its own binary.
func MaybeWorker() {
	if os.Getenv(EnvWorkerMode) != "1" {
		return
	}
	if err := runWorker(); err != nil {
		fmt.Fprintln(os.Stderr, "mrworker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runWorker runs the worker loop in this process: listen on a loopback
// port, announce it on stdout, serve until stdin reaches EOF. When the
// master scripted a fault scenario into the environment
// (faultinject.EnvScenario), the worker's mux is wrapped in its
// middleware; otherwise the surface is served bare.
func runWorker() error {
	inj, err := faultinject.FromEnv()
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w := NewWorker()
	w.addr = ln.Addr().String()
	fmt.Printf("%s%s\n", readyPrefix, w.addr)
	srv := &http.Server{Handler: inj.Middleware(w.Handler())}
	go func() {
		// The master holds our stdin open for our whole life; EOF (or any
		// read error) means it is gone or told us to stop.
		io.Copy(io.Discard, os.Stdin)
		srv.Close()
	}()
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	return nil
}

func (w *Worker) handlePing(rw http.ResponseWriter, _ *http.Request) {
	io.WriteString(rw, "ok")
}

// maxPushPresize caps the buffer readPushBody allocates from a declared
// Content-Length before any body byte arrives. It bounds what one
// connection that has sent only its headers can pin. 4 MiB holds a
// 12,500-point split up to d = 40 (the benchmark's pushes are 12,500 × 16
// points, 1.6 MB); a longer body grows the buffer as it arrives.
const maxPushPresize = 4 << 20

// readPushBody reads a whole push body. The buffer starts at the declared
// length (capped at maxPushPresize) plus bytes.MinRead, so a body as long
// as its header says is read into one allocation, without the copies of
// growing it from io.ReadAll's 512 bytes. A body shorter than its header
// fails with the reader's error, as with io.ReadAll.
func readPushBody(r io.Reader, declared int64) ([]byte, error) {
	size := int64(bytes.MinRead)
	if declared > 0 {
		size += min(declared, maxPushPresize)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// handlePush installs one split's points, and drops the splits of older
// versions of the same file.
func (w *Worker) handlePush(rw http.ResponseWriter, req *http.Request) {
	body, err := readPushBody(req.Body, req.ContentLength)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	d := NewDecoder(body)
	key := decodeSplitKey(d)
	dim := int(d.U32())
	textBytes := d.I64()
	flat := d.Vec()
	if err := d.Err(); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if dim <= 0 || len(flat)%dim != 0 || textBytes < 0 {
		http.Error(rw, fmt.Sprintf("push of %s split %d: %d coordinates at dim %d, %d bytes",
			key.path, key.index, len(flat), dim, textBytes), http.StatusBadRequest)
		return
	}
	ps := dfs.NewPointSplit(flat, dim, textBytes)
	w.mu.Lock()
	for k := range w.splits {
		if k.path == key.path && k.version < key.version {
			delete(w.splits, k)
		}
	}
	w.splits[key] = ps
	w.mu.Unlock()
	rw.Write(new(Encoder).Begin().U8(statusOK).Bytes())
}

// taskRequest is the decoded common prefix of map and reduce requests.
type taskRequest struct {
	jobID       string
	name        string
	spec        mr.JobSpec
	cluster     mr.Cluster
	pointDim    int
	numReducers int
}

func decodeTaskRequest(d *Decoder) taskRequest {
	return taskRequest{
		jobID: d.Str(),
		name:  d.Str(),
		spec:  mr.JobSpec{Kind: d.Str(), Payload: d.Blob()},
		cluster: mr.Cluster{
			Nodes:              int(d.U32()),
			MapSlotsPerNode:    int(d.U32()),
			ReduceSlotsPerNode: int(d.U32()),
			TaskHeapBytes:      d.I64(),
			MaxHeapUsage:       d.F64(),
		},
		pointDim:    int(d.U32()),
		numReducers: int(d.U32()),
	}
}

func encodeTaskRequest(e *Encoder, jobID string, j *mr.Job, numReducers int) {
	e.Str(jobID).Str(j.Name).Str(j.Spec.Kind).Blob(j.Spec.Payload)
	e.U32(uint32(j.Cluster.Nodes)).U32(uint32(j.Cluster.MapSlotsPerNode)).U32(uint32(j.Cluster.ReduceSlotsPerNode))
	e.I64(j.Cluster.TaskHeapBytes).F64(j.Cluster.MaxHeapUsage)
	e.U32(uint32(j.PointDim)).U32(uint32(numReducers))
}

// job reconstructs the executable mr.Job for a task request. The
// factories come from the spec's registered kind, so the
// mapper/combiner/reducer behaviour is identical to the driver's.
func (tr *taskRequest) job() (*mr.Job, error) {
	parts, err := buildParts(&tr.spec)
	if err != nil {
		return nil, err
	}
	return parts.Install(&mr.Job{
		Name:     tr.name,
		Cluster:  tr.cluster,
		PointDim: tr.pointDim,
	}), nil
}

// writeTaskErr encodes a deterministic task failure. ErrHeapSpace loses
// identity across process boundaries, so it travels as a flag and the
// master reconstructs the sentinel.
func writeTaskErr(e *Encoder, err error) {
	kind, taskID := "", uint32(0)
	heap := false
	msg := err.Error()
	if te, ok := err.(*mr.TaskError); ok {
		kind = string(te.Kind)
		taskID = uint32(te.TaskID)
		heap = te.Err == mr.ErrHeapSpace
		if heap {
			msg = ""
		} else if te.Err != nil {
			msg = te.Err.Error()
		}
	}
	e.U8(statusTaskErr).Str(kind).U32(taskID).Bool(heap).Str(msg)
}

// handleMap executes one map task on a pushed split and retains its
// per-partition runs for shuffle pull. A split this worker lacks, or
// holds at another dim than the job's, answers statusStale, and the
// master pushes it before the retry.
func (w *Worker) handleMap(rw http.ResponseWriter, req *http.Request) {
	if w.slowMS > 0 {
		time.Sleep(time.Duration(w.slowMS) * time.Millisecond)
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	d := NewDecoder(body)
	tr := decodeTaskRequest(d)
	taskID := int(d.U32())
	key := decodeSplitKey(d)
	if err := d.Err(); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}

	var e Encoder
	e.Begin()
	w.mu.Lock()
	ps := w.splits[key]
	w.mu.Unlock()
	if ps == nil || ps.Dim() != tr.pointDim {
		e.U8(statusStale)
		rw.Write(e.Bytes())
		return
	}

	j, err := tr.job()
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	counters := mr.NewCounters()
	runs, err := j.ExecMapTask(taskID, ps, tr.numReducers, mr.DefaultPartitioner, counters)
	if err != nil {
		writeTaskErr(&e, err)
		rw.Write(e.Bytes())
		return
	}

	js := w.jobState(tr.jobID)
	js.mu.Lock()
	js.parts[taskID] = runs
	js.mu.Unlock()

	e.U8(statusOK)
	e.Counters(counters)
	rw.Write(e.Bytes())
}

func (w *Worker) jobState(jobID string) *jobState {
	w.mu.Lock()
	defer w.mu.Unlock()
	js, ok := w.jobs[jobID]
	if !ok {
		js = &jobState{parts: make(map[int][][]mr.KV)}
		w.jobs[jobID] = js
	}
	return js
}

// handleShuffle serves the runs of one partition for the requested map
// tasks, in request order.
func (w *Worker) handleShuffle(rw http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	d := NewDecoder(body)
	jobID := d.Str()
	p := int(d.U32())
	// The count is attacker-sized until proven otherwise: cap the
	// preallocation and stop looping the moment the decoder goes sticky,
	// so a corrupt frame cannot buy gigabytes or billions of iterations.
	n := int(d.U32())
	ids := make([]int, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		ids = append(ids, int(d.U32()))
	}
	if err := d.Err(); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}

	js := w.jobState(jobID)
	var e Encoder
	e.Begin().U8(statusOK)
	js.mu.Lock()
	defer js.mu.Unlock()
	for _, t := range ids {
		runs, ok := js.parts[t]
		if !ok || p < 0 || p >= len(runs) {
			http.Error(rw, fmt.Sprintf("no output for job %s task %d partition %d", jobID, t, p), http.StatusNotFound)
			return
		}
		if err := e.KVs(runs[p]); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	rw.Write(e.Bytes())
}

// handleReduce pulls this partition's runs from the listed map-output
// locations (itself included), merges and reduces them, and returns the
// output with the task's counters.
func (w *Worker) handleReduce(rw http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	d := NewDecoder(body)
	tr := decodeTaskRequest(d)
	p := int(d.U32())
	// Same bounded-decode discipline as handleShuffle: a corrupt count
	// must not drive the preallocation or the loop.
	numMapTasks := int(d.U32())
	locs := make([]string, 0, min(numMapTasks, 1<<16))
	for i := 0; i < numMapTasks && d.Err() == nil; i++ {
		locs = append(locs, d.Str())
	}
	if err := d.Err(); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}

	var e Encoder
	e.Begin()

	// Pull each location's runs, grouped per address but reassembled by
	// map-task id — the merge order the determinism contract requires.
	runs := make([][]mr.KV, numMapTasks)
	byAddr := make(map[string][]int, 4)
	order := make([]string, 0, 4)
	for t, addr := range locs {
		if _, seen := byAddr[addr]; !seen {
			order = append(order, addr)
		}
		byAddr[addr] = append(byAddr[addr], t)
	}
	for _, addr := range order {
		ids := byAddr[addr]
		if addr == w.addr {
			js := w.jobState(tr.jobID)
			js.mu.Lock()
			ok := true
			for _, t := range ids {
				parts, have := js.parts[t]
				if !have || p >= len(parts) {
					ok = false
					break
				}
				runs[t] = parts[p]
			}
			js.mu.Unlock()
			if !ok {
				e.U8(statusFetchFail).Str(addr)
				rw.Write(e.Bytes())
				return
			}
			continue
		}
		got, err := w.fetchShuffle(req.Context(), addr, tr.jobID, p, ids)
		if err != nil {
			e.U8(statusFetchFail).Str(addr)
			rw.Write(e.Bytes())
			return
		}
		for i, t := range ids {
			runs[t] = got[i]
		}
	}

	j, err := tr.job()
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	counters := mr.NewCounters()
	out, err := j.ExecReduceTask(p, counters, runs)
	if err != nil {
		writeTaskErr(&e, err)
		rw.Write(e.Bytes())
		return
	}
	e.U8(statusOK)
	if err := e.KVs(out); err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	e.Counters(counters)
	rw.Write(e.Bytes())
}

// fetchShuffle pulls the runs of partition p for the given map tasks from
// a peer worker, under the reduce request's context so an abandoned
// reduce task does not keep pulling.
func (w *Worker) fetchShuffle(ctx context.Context, addr, jobID string, p int, ids []int) ([][]mr.KV, error) {
	var e Encoder
	e.Begin().Str(jobID).U32(uint32(p)).U32(uint32(len(ids)))
	for _, t := range ids {
		e.U32(uint32(t))
	}
	body, err := postWire(ctx, w.client, addr, "/v1/shuffle", e.Bytes())
	if err != nil {
		return nil, err
	}
	d := NewDecoder(body)
	if st := d.U8(); st != statusOK {
		return nil, fmt.Errorf("mrdist: shuffle fetch from %s: status %d", addr, st)
	}
	out := make([][]mr.KV, len(ids))
	for i := range ids {
		out[i] = d.KVs()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// handleFree drops a completed job's map outputs.
func (w *Worker) handleFree(rw http.ResponseWriter, req *http.Request) {
	jobID := req.URL.Query().Get("job")
	w.mu.Lock()
	delete(w.jobs, jobID)
	w.mu.Unlock()
	rw.WriteHeader(http.StatusOK)
}
