package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/model"
	"gmeansmr/internal/serve"
	"gmeansmr/internal/vec"
)

// serveOut carries the serving workload's end-to-end metrics and the
// distributions they were read from.
type serveOut struct {
	Metrics map[string]float64 `json:"metrics"`
	Samples map[string]Summary `json:"samples"`
}

// Query pools: the open and closed loops cycle through these many
// pre-encoded singletons and batches, so the client spends its time on
// the wire rather than on encoding.
const (
	singlePool = 4096
	batchPool  = 16
)

// maxGenLateP99 is how late (p99) the open-loop generator may start
// requests whose connection was idle before the run is invalid: beyond
// it the arrival schedule, not the server, shapes the latencies.
const maxGenLateP99 = 5 * time.Millisecond

// clock is the time source of an open-loop schedule; tests substitute a
// simulated one.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// wallClock measures real time from start.
type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.start) }

// sleepUntil sleeps in the kernel rather than on a Go timer: the
// runtime's timers wake an idle process with millisecond granularity,
// which at thousands of arrivals per second would make the generator,
// not the server, set the latencies.
func (c wallClock) sleepUntil(t time.Duration) {
	for d := t - spinAhead - c.now(); d > 0; d = t - spinAhead - c.now() {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-reads the clock
	}
	for c.now() < t {
		runtime.Gosched()
	}
}

// spinAhead is how early the generator wakes before a due time to yield
// its way to it: a kernel sleep overshoots by the timer slack and the
// wake-up, which would otherwise land in every latency.
const spinAhead = 150 * time.Microsecond

// poissonSchedule returns the due times of a Poisson arrival process of
// the given rate (per second) over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// opRecord is one open-loop request's timeline, as offsets from the
// schedule's start.
type opRecord struct {
	Due, Sent, Done time.Duration
	Failed          bool
}

// runOpenLoop sends the scheduled requests of one connection in order:
// each at its due time or, while the connection is still busy with an
// earlier request, as soon as that one completes. send performs request
// i; check, when non-nil, verifies its answer after Done is stamped, so
// verification is not timed. A request fails when either returns an
// error.
func runOpenLoop(ctx context.Context, clk clock, due []time.Duration, send, check func(i int) error) []opRecord {
	recs := make([]opRecord, 0, len(due))
	for i, d := range due {
		if ctx.Err() != nil {
			break
		}
		clk.sleepUntil(d)
		r := opRecord{Due: d, Sent: clk.now()}
		err := send(i)
		r.Done = clk.now()
		if err == nil && check != nil {
			err = check(i)
		}
		r.Failed = err != nil
		recs = append(recs, r)
	}
	return recs
}

// openLoopTimes are the per-request times of one open-loop stream, in
// milliseconds. A failed request's latencies are +Inf.
type openLoopTimes struct {
	// FromDue is the latency the user sees: from when the request was
	// due to when its answer arrived, including any wait behind earlier
	// requests on the connection.
	FromDue []float64
	// FromSend is the latency from the moment the request was sent.
	FromSend []float64
	// ClientWait is FromDue − FromSend: how long the request waited to
	// be sent.
	ClientWait []float64
	// GenLate is the part of that wait the connection was idle for: how
	// late the generator itself ran.
	GenLate []float64
	Failed  int
}

// add appends the times of o.
func (t *openLoopTimes) add(o openLoopTimes) {
	t.FromDue = append(t.FromDue, o.FromDue...)
	t.FromSend = append(t.FromSend, o.FromSend...)
	t.ClientWait = append(t.ClientWait, o.ClientWait...)
	t.GenLate = append(t.GenLate, o.GenLate...)
	t.Failed += o.Failed
}

func accountOpenLoop(recs []opRecord) openLoopTimes {
	var t openLoopTimes
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var prevDone time.Duration
	for _, r := range recs {
		ready := max(r.Due, prevDone)
		prevDone = r.Done
		t.ClientWait = append(t.ClientWait, ms(r.Sent-r.Due))
		t.GenLate = append(t.GenLate, ms(r.Sent-ready))
		if r.Failed {
			t.Failed++
			t.FromDue = append(t.FromDue, math.Inf(1))
			t.FromSend = append(t.FromSend, math.Inf(1))
			continue
		}
		t.FromDue = append(t.FromDue, ms(r.Done-r.Due))
		t.FromSend = append(t.FromSend, ms(r.Done-r.Sent))
	}
	return t
}

// answer is the oracle's answer for one query point.
type answer struct {
	cluster int
	dist    float64
}

// queryPools holds the pre-encoded request bodies and the oracle's
// answers for them.
type queryPools struct {
	singles      [][]byte // JSON /v1/assign bodies
	singleWant   []answer
	batches      [][]byte // GMPB /v1/assign/batch bodies
	batchPoints  [][]vec.Vector
	batchWant    [][]answer
	singlePoints []vec.Vector
}

func buildPools(st *dataset.Stream, centers []vec.Vector, dim, batchSize int) (*queryPools, error) {
	want := func(p vec.Vector) answer {
		i, d2 := vec.NearestIndex(p, centers)
		return answer{cluster: i, dist: math.Sqrt(d2)}
	}
	next := func() (vec.Vector, error) {
		p, _, ok := st.Next()
		if !ok {
			return nil, errors.New("query stream ended early")
		}
		return p, nil
	}
	q := &queryPools{}
	for i := 0; i < singlePool; i++ {
		p, err := next()
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(map[string]any{"point": p})
		if err != nil {
			return nil, err
		}
		q.singles = append(q.singles, b)
		q.singlePoints = append(q.singlePoints, p)
		q.singleWant = append(q.singleWant, want(p))
	}
	for i := 0; i < batchPool; i++ {
		body := dfs.BinaryHeader(dim)
		pts := make([]vec.Vector, batchSize)
		ws := make([]answer, batchSize)
		for j := range pts {
			p, err := next()
			if err != nil {
				return nil, err
			}
			body = dfs.AppendBinaryPoint(body, p)
			pts[j], ws[j] = p, want(p)
		}
		q.batches = append(q.batches, body)
		q.batchPoints = append(q.batchPoints, pts)
		q.batchWant = append(q.batchWant, ws)
	}
	return q, nil
}

// verifier compares answers with the oracle's and counts mismatches. One
// per connection.
type verifier struct {
	mismatches int64
}

func (v *verifier) observe(got serve.Assignment, want answer) error {
	if got.Cluster != want.cluster || got.Distance != want.dist {
		v.mismatches++
		return fmt.Errorf("answer {%d %v}, want {%d %v}", got.Cluster, got.Distance, want.cluster, want.dist)
	}
	return nil
}

func (v *verifier) single(body []byte, want answer) error {
	var got serve.Assignment
	if err := json.Unmarshal(body, &got); err != nil {
		v.mismatches++
		return err
	}
	return v.observe(got, want)
}

func (v *verifier) batch(body []byte, want []answer) error {
	if _, err := serve.ParseAssignHeader(body); err != nil {
		v.mismatches++
		return err
	}
	frames := body[serve.AssignHeaderLen:]
	if len(frames) != len(want)*serve.AssignFrameLen {
		v.mismatches++
		return fmt.Errorf("%d frame bytes for %d points", len(frames), len(want))
	}
	var first error
	for i, w := range want {
		if err := v.observe(serve.DecodeAssignFrame(frames[i*serve.AssignFrameLen:]), w); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// conn is one HTTP/1.1 keep-alive connection to the server: a client
// whose transport never opens a second one.
type conn struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// post sends body to path and leaves the answer in c.buf.
func (c *conn) post(path, contentType string, body []byte) error {
	resp, err := c.client.Post(c.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return nil
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// runServe is the serving workload: set-up timing, then phase A (open
// loop with hot swaps) and phase B (closed loop), with every answer
// checked against the oracle. A non-nil rec adds the traced measurements
// of the model and serve layers. pause, when non-nil, is called between
// the phases' slices, while no request is in flight.
func runServe(ctx context.Context, s *serveSpec, opts runOpts, rec *recorder, pause func()) *childResult {
	res := &childResult{}
	out := &serveOut{Metrics: map[string]float64{}, Samples: map[string]Summary{}}
	res.Serve = out
	layers := map[string]float64{}

	// Inputs: the model holds the true centers of a mixture, and queries
	// are drawn from the same mixture.
	st, err := dataset.NewStream(mixtureSpec(s.K, s.Dim, singlePool+batchPool*s.BatchSize, opts.Seed, 0))
	if err != nil {
		res.fail("query stream: %v", err)
		return res
	}
	centers := st.Centers()
	truth, err := model.New(centers, model.Meta{Algorithm: "mixture-truth"})
	if err != nil {
		res.fail("model: %v", err)
		return res
	}
	var snap bytes.Buffer
	if err := truth.Save(&snap); err != nil {
		res.fail("model snapshot: %v", err)
		return res
	}
	pools, err := buildPools(st, centers, s.Dim, s.BatchSize)
	if err != nil {
		res.fail("query pools: %v", err)
		return res
	}

	// Set-up: load the snapshot and build a server, SetupBatch times
	// unmeasured; the measured batches follow at every slice boundary.
	if s.SetupBatch < 1 {
		res.fail("SetupBatch must be at least 1, got %d", s.SetupBatch)
		return res
	}
	su := &setUps{snap: snap.Bytes()}
	setupSpan := rec.start("serve.setup", 0, 0)
	srv, models, err := su.batch(s.SetupBatch, false)
	setupSpan.end()
	if err != nil {
		res.fail("set-up: %v", err)
		return res
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		res.fail("listen: %v", err)
		return res
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			res.fail("server shutdown: %v", err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			res.fail("server: %v", err)
		}
	}()
	base := "http://" + ln.Addr().String()

	if rec != nil {
		if err := traceServeDirect(srv, models, pools, s, base, rec, layers); err != nil {
			res.fail("direct calls: %v", err)
			return res
		}
	}

	ld := newServeLoad(s, base, srv, models, pools)
	defer ld.close()
	if err := ld.warmUp(); err != nil {
		res.fail("warm-up: %v", err)
		return res
	}

	// The run alternates slices of phase A (open loop) and phase B (closed
	// loop), so a slow spell of the machine lands on both phases instead of
	// on one. Each slice is followed by a batch of timed set-ups and the
	// pause.
	boundary := func() bool {
		sp := rec.start("serve.setup", 0, 0)
		_, _, err := su.batch(s.SetupBatch, true)
		sp.end()
		if err != nil {
			res.fail("set-up: %v", err)
			return false
		}
		if pause != nil {
			pause()
		}
		return true
	}
	cycles := max(1, opts.Seconds/2)
	slice := opts.duration() / time.Duration(2*cycles)
	rng := rand.New(rand.NewSource(opts.Seed))
	for c := 0; c < cycles && ctx.Err() == nil; c++ {
		a := rec.start("serve.phase-a", 0, 0)
		ld.open(ctx, rng, slice)
		a.end()
		if !boundary() {
			return res
		}
		b := rec.start("serve.phase-b", 0, 0)
		ld.closed(ctx, slice)
		b.end()
		if !boundary() {
			return res
		}
	}
	out.Metrics["setup_s"] = mean(su.batches)
	out.Samples["setup_s"] = summarize(su.all)
	layers["model.load_ms"] = median(su.loads)
	layers["serve.new_ms"] = median(su.news)
	ld.report(res, layers)
	if rec != nil {
		res.Layers = layers
	}
	return res
}

// setUps times the serving workload's set-up — model.Load of the
// snapshot bytes, then serve.New — in batches. One set-up takes tens of
// microseconds, and a vCPU's speed flips between two levels every few
// seconds as the load on its host's sibling thread changes, so set-ups
// timed back to back would report the level of one moment. Batches spread
// over the run, each reduced to its median, average over those levels.
type setUps struct {
	snap        []byte
	batches     []float64 // the median set-up time of each measured batch, seconds
	all         []float64 // every measured set-up time, seconds
	loads, news []float64 // the two parts of every measured set-up, milliseconds
}

// batch runs n set-ups, records them when measured is true, and returns
// the last server built and the last two models loaded.
func (u *setUps) batch(n int, measured bool) (*serve.Server, [2]*model.Model, error) {
	var srv *serve.Server
	var models [2]*model.Model
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		m, err := model.Load(bytes.NewReader(u.snap))
		t1 := time.Now()
		if err != nil {
			return nil, models, fmt.Errorf("model.Load: %w", err)
		}
		sv, err := serve.New(m, serve.Options{})
		t2 := time.Now()
		if err != nil {
			return nil, models, fmt.Errorf("serve.New: %w", err)
		}
		srv, models[i%2] = sv, m
		times = append(times, t2.Sub(t0).Seconds())
		if measured {
			u.loads = append(u.loads, 1e3*t1.Sub(t0).Seconds())
			u.news = append(u.news, 1e3*t2.Sub(t1).Seconds())
		}
	}
	if measured {
		u.batches = append(u.batches, median(times))
		u.all = append(u.all, times...)
	}
	return srv, models, nil
}

// serveLoad drives the serving workload's two phases and accumulates what
// they measured.
type serveLoad struct {
	s      *serveSpec
	srv    *serve.Server
	models [2]*model.Model
	q      *queryPools
	// single and batch are phase A's connections, closed phase B's.
	single, batch *conn
	closedConns   [2]*conn
	verify        [4]verifier // one per connection

	singles, batches openLoopTimes
	scheduled, sent  int
	swapUs           []float64
	swapErr          error
	closedMs         []float64
	closedTime       time.Duration
}

func newServeLoad(s *serveSpec, base string, srv *serve.Server, models [2]*model.Model, q *queryPools) *serveLoad {
	return &serveLoad{s: s, srv: srv, models: models, q: q,
		single: newConn(base), batch: newConn(base),
		closedConns: [2]*conn{newConn(base), newConn(base)}}
}

func (l *serveLoad) close() {
	for _, c := range []*conn{l.single, l.batch, l.closedConns[0], l.closedConns[1]} {
		c.close()
	}
}

// warmUp opens every connection and fills the server's buffer pools.
func (l *serveLoad) warmUp() error {
	for i := 0; i < 500; i++ {
		if err := l.single.post("/v1/assign", "application/json", l.q.singles[i%singlePool]); err != nil {
			return err
		}
	}
	for _, c := range []*conn{l.batch, l.closedConns[0], l.closedConns[1]} {
		for i := 0; i < 20; i++ {
			if err := c.post("/v1/assign/batch", "application/octet-stream", l.q.batches[i%batchPool]); err != nil {
				return err
			}
		}
	}
	return nil
}

// open runs one slice of phase A: JSON singletons on one connection and
// GMPB batches on the other arrive on seeded Poisson schedules while the
// active model is swapped every SwapEvery.
func (l *serveLoad) open(ctx context.Context, rng *rand.Rand, dur time.Duration) {
	singleDue := poissonSchedule(rng, l.s.SingleRate, dur)
	batchDue := poissonSchedule(rng, l.s.BatchRate, dur)
	l.scheduled += len(singleDue) + len(batchDue)
	q := l.q
	var singles, batches []opRecord
	clk := wallClock{start: time.Now()}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		singles = runOpenLoop(ctx, clk, singleDue,
			func(i int) error { return l.single.post("/v1/assign", "application/json", q.singles[i%singlePool]) },
			func(i int) error { return l.verify[0].single(l.single.buf.Bytes(), q.singleWant[i%singlePool]) })
	}()
	go func() {
		defer wg.Done()
		batches = runOpenLoop(ctx, clk, batchDue,
			func(i int) error {
				return l.batch.post("/v1/assign/batch", "application/octet-stream", q.batches[i%batchPool])
			},
			func(i int) error { return l.verify[1].batch(l.batch.buf.Bytes(), q.batchWant[i%batchPool]) })
	}()
	go func() {
		defer wg.Done()
		tick := time.NewTicker(l.s.SwapEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			if err := l.srv.Swap(l.models[len(l.swapUs)%2]); err != nil && l.swapErr == nil {
				l.swapErr = err
			}
			l.swapUs = append(l.swapUs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}()
	// The swapper stops when the slice ends; the streams stop on their
	// own after their last due request.
	select {
	case <-time.After(dur):
	case <-ctx.Done():
	}
	close(stop)
	wg.Wait()
	l.sent += len(singles) + len(batches)
	l.singles.add(accountOpenLoop(singles))
	l.batches.add(accountOpenLoop(batches))
}

// closed runs one slice of phase B: two connections send GMPB batches
// back to back.
func (l *serveLoad) closed(ctx context.Context, dur time.Duration) {
	var ms [2][]float64
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	for g := range l.closedConns {
		go func(g int) {
			defer wg.Done()
			c, v := l.closedConns[g], &l.verify[2+g]
			for i := g; time.Since(start) < dur && ctx.Err() == nil; i++ {
				t0 := time.Now()
				err := c.post("/v1/assign/batch", "application/octet-stream", l.q.batches[i%batchPool])
				lat := float64(time.Since(t0)) / float64(time.Millisecond)
				if err == nil {
					err = v.batch(c.buf.Bytes(), l.q.batchWant[i%batchPool])
				}
				if err != nil {
					lat = math.Inf(1)
				}
				ms[g] = append(ms[g], lat)
			}
		}(g)
	}
	wg.Wait()
	l.closedTime += time.Since(start)
	l.closedMs = append(append(l.closedMs, ms[0]...), ms[1]...)
}

// report checks what the phases measured and writes the metrics.
func (l *serveLoad) report(res *childResult, layers map[string]float64) {
	out := res.Serve
	failedB := 0
	for _, ms := range l.closedMs {
		if math.IsInf(ms, 1) {
			failedB++
		}
	}
	var mismatches int64
	for _, v := range l.verify {
		mismatches += v.mismatches
	}
	res.Attempted += len(l.singles.FromDue) + len(l.batches.FromDue) + len(l.closedMs)
	if n := l.singles.Failed + l.batches.Failed + failedB; n > 0 {
		res.Failed += n
		res.Checks = append(res.Checks, fmt.Sprintf("%d requests failed or were answered wrongly", n))
	}
	if l.sent < l.scheduled {
		res.fail("open loop stopped early: %d of %d requests sent", l.sent, l.scheduled)
	}
	if l.swapErr != nil {
		res.fail("swap: %v", l.swapErr)
	}
	genLate := append(append([]float64(nil), l.singles.GenLate...), l.batches.GenLate...)
	// Judged only where the p99 has ten samples beyond it: on fewer, one
	// scheduling hiccup would invalidate the run.
	if p := percentile(genLate, 0.99); len(genLate) >= 100*minBeyond && p > float64(maxGenLateP99)/float64(time.Millisecond) {
		res.fail("open-loop generator ran late: p99 %.3f ms", p)
	}
	clientWait := append(append([]float64(nil), l.singles.ClientWait...), l.batches.ClientWait...)
	answeredB := (len(l.closedMs) - failedB) * l.s.BatchSize

	out.Metrics["op_p50_ms"] = percentile(l.batches.FromDue, 0.5)
	out.Metrics["points_per_s"] = float64(answeredB) / l.closedTime.Seconds()
	out.Samples["single_ms"] = summarize(l.singles.FromDue)
	out.Samples["single_send_ms"] = summarize(l.singles.FromSend)
	out.Samples["batch_ms"] = summarize(l.batches.FromDue)
	out.Samples["batch_send_ms"] = summarize(l.batches.FromSend)
	out.Samples["closed_ms"] = summarize(l.closedMs)
	out.Samples["client_wait_ms"] = summarize(clientWait)
	out.Samples["gen_late_ms"] = summarize(genLate)
	out.Samples["swap_us"] = summarize(l.swapUs)

	layers["serve.single_p50_ms"] = percentile(l.singles.FromDue, 0.5)
	layers["serve.single_p90_ms"] = percentile(l.singles.FromDue, 0.9)
	layers["serve.single_p99_ms"] = percentile(l.singles.FromDue, 0.99)
	layers["serve.batch_p50_ms"] = percentile(l.batches.FromDue, 0.5)
	layers["serve.batch_p90_ms"] = percentile(l.batches.FromDue, 0.9)
	layers["serve.batch_p99_ms"] = percentile(l.batches.FromDue, 0.99)
	layers["serve.closed_p99_ms"] = percentile(l.closedMs, 0.99)
	layers["serve.client_wait_p99_ms"] = percentile(clientWait, 0.99)
	layers["serve.gen_late_p99_ms"] = percentile(genLate, 0.99)
	layers["serve.requests"] = float64(res.Attempted)
	layers["serve.failed"] = float64(res.Failed)
	layers["serve.verify_mismatches"] = float64(mismatches)
	layers["serve.swaps"] = float64(len(l.swapUs))
}

// traceServeDirect times the model and serve layers without HTTP, then
// the same calls through HTTP on one idle connection; the difference is
// the cost of framing and transport.
func traceServeDirect(srv *serve.Server, models [2]*model.Model, q *queryPools, s *serveSpec, base string, rec *recorder, layers map[string]float64) error {
	root := rec.start("serve.direct", 0, 0)
	defer root.end()
	reps, batchReps := s.DirectReps, max(s.DirectReps/10, 1)
	timeCalls := func(name string, n int, call func(i int) error) ([]float64, error) {
		sp := rec.start(name, root.id(), 0)
		defer sp.end()
		us := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := call(i); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		return us, nil
	}
	assign, err := timeCalls("serve.Assign", reps, func(i int) error {
		_, err := srv.Assign(q.singlePoints[i%singlePool])
		return err
	})
	if err != nil {
		return err
	}
	assignBatch, err := timeCalls("serve.AssignBatch", batchReps, func(i int) error {
		_, err := srv.AssignBatch(q.batchPoints[i%batchPool])
		return err
	})
	if err != nil {
		return err
	}
	pack := models[0].Pack()
	scratch := pack.GetScratch()
	rows, err := timeCalls("vec.NearestRows", batchReps, func(i int) error {
		pack.NearestRows(q.batchPoints[i%batchPool], scratch)
		return nil
	})
	pack.PutScratch(scratch)
	if err != nil {
		return err
	}
	swaps, err := timeCalls("serve.Swap", batchReps, func(i int) error { return srv.Swap(models[i%2]) })
	if err != nil {
		return err
	}
	c := newConn(base)
	defer c.close()
	httpSingle, err := timeCalls("http.assign", reps, func(i int) error {
		return c.post("/v1/assign", "application/json", q.singles[i%singlePool])
	})
	if err != nil {
		return err
	}
	httpBatch, err := timeCalls("http.assign-batch", batchReps, func(i int) error {
		return c.post("/v1/assign/batch", "application/octet-stream", q.batches[i%batchPool])
	})
	if err != nil {
		return err
	}
	layers["serve.assign_us"] = median(assign)
	layers["serve.assign_batch_us"] = median(assignBatch)
	layers["vec.nearest_rows_us"] = median(rows)
	layers["serve.swap_us"] = median(swaps)
	layers["serve.single_framing_us"] = median(httpSingle) - median(assign)
	layers["serve.batch_framing_us"] = median(httpBatch) - median(assignBatch)
	return nil
}
