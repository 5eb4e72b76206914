// Package serve is the query-time half of the system: an HTTP server that
// answers "which cluster does this point belong to?" against a trained
// model. Training is a batch MapReduce pipeline; this layer is built for
// the opposite regime — many small concurrent requests against a small
// read-only center set.
//
// # One path per request shape
//
// A request's shape alone picks the routine that answers it, and there is
// no option that changes the choice. Every batch on /v1/assign/batch runs
// through the fused columnar kernel the training inner loop uses
// (vec.CenterPack.NearestRows → vec.NearestBatch: dim-major, AVX-512/AVX2
// point tiles on amd64). Every singleton on /v1/assign, where a batch of
// one gains nothing from SIMD, runs the scalar scan
// (vec.CenterPack.Nearest → vec.NearestIndex) on the snapshot its handler
// loaded; concurrent singletons are answered independently. The two are
// bit-identical — same distance bits, same lowest-index tie rule — and
// TestServePathEquivalence pins that on every endpoint and framing.
//
// The active model publishes a kernel-ready packed center set
// (vec.CenterPack via model.Pack) with per-request scratch pooling, so
// the steady-state query path performs no allocation and no transpose
// setup beyond the points themselves.
//
// # Hot swap
//
// The active model lives behind an atomic.Pointer. Every request loads
// the pointer once and works against that immutable snapshot (model and
// packed centers built together), so a concurrent hot swap (POST
// /v1/model/reload) is invisible to in-flight requests: they finish on
// the old model, new requests see the new one, and no lock is ever taken
// on the query path.
//
// Endpoints:
//
//	POST /v1/assign        {"point":[...]}            → cluster id, center, distance
//	POST /v1/assign/batch  {"points":[[...],...]}     → per-point cluster id + distance
//	GET  /v1/model                                    → model metadata
//	POST /v1/model/reload                             → hot-swap from the configured loader
//	GET  /healthz                                     → liveness + model summary + uptime + build info
//	GET  /metrics                                     → Prometheus text format
//
// Both assign endpoints also speak a binary wire format (GMPB request
// frames, GMAB response frames — see binary.go and docs/formats.md)
// selected by the request body's magic bytes, so load generators and
// high-volume clients skip JSON entirely. Error responses are typed:
// every 4xx/5xx body carries a stable machine-readable "code" alongside
// the human-readable "error".
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gmeansmr/internal/model"
	"gmeansmr/internal/obs"
	"gmeansmr/internal/vec"
)

// DefaultMaxBatch caps the number of points in one batch request.
const DefaultMaxBatch = 10_000

// defaultMaxBodyBytes caps a request body; a batch of DefaultMaxBatch
// points in R^100 in JSON fits comfortably.
const defaultMaxBodyBytes = 64 << 20

// Stable machine-readable error codes carried in every error response's
// "code" field, so clients and load generators can branch without
// parsing English.
const (
	CodeBadBody      = "bad_body"      // malformed JSON or binary framing
	CodeEmptyBatch   = "empty_batch"   // batch with zero points
	CodeEmptyPoint   = "empty_point"   // zero-dimensional point
	CodeDimMismatch  = "dim_mismatch"  // point dimensionality != model's
	CodeNumericRange = "numeric_range" // NaN coordinate or distance overflow
	CodeTooLarge     = "too_large"     // batch or body over the limit
	CodeNoLoader     = "no_loader"     // reload without a snapshot source
	CodeReloadFailed = "reload_failed" // loader error during reload
)

// Options configure a Server. The zero value is serviceable.
type Options struct {
	// Loader, when non-nil, is the snapshot source POST /v1/model/reload
	// pulls the replacement model from (typically: re-read the snapshot
	// file a trainer overwrites). Without it reload requests fail.
	Loader func() (*model.Model, error)
}

// Assignment is one point's answer: the nearest center's index and the
// Euclidean distance to it.
type Assignment struct {
	Cluster  int     `json:"cluster"`
	Distance float64 `json:"distance"`
}

// assigner pairs an immutable model with the kernel-ready packed centers
// derived from it. The pair swaps atomically as a unit, so a request can
// never see centers packed from a different model than the one it reads.
type assigner struct {
	m    *model.Model
	pack *vec.CenterPack
	gen  int64 // swap generation, 1-based
}

// errNumericRange covers NaN coordinates and magnitudes whose squared
// distance overflows to +Inf against every center: nearest-center search
// returns index -1 for those, which must never leak to callers as a
// "cluster".
var errNumericRange = errors.New("serve: point is outside the model's numeric range")

// assign answers one singleton query with the scalar scan. A batch of
// one gains nothing from the columnar kernel, so it is never used here.
func (a *assigner) assign(p vec.Vector) (Assignment, error) {
	idx, d2 := a.pack.Nearest(p)
	if idx < 0 {
		return Assignment{}, errNumericRange
	}
	return Assignment{Cluster: idx, Distance: math.Sqrt(d2)}, nil
}

// assignInto assigns every point of a dim-validated batch through the
// columnar kernel, writing out[j] for each. Points with no finite nearest
// center get Cluster -1 (Distance +Inf); it returns the index of the
// first such point, or -1 when all points assigned.
func (a *assigner) assignInto(points []vec.Vector, out []Assignment) int {
	firstBad := -1
	s := a.pack.GetScratch()
	idx, dist := a.pack.NearestRows(points, s)
	for j := range points {
		if idx[j] < 0 && firstBad < 0 {
			firstBad = j
		}
		out[j] = Assignment{Cluster: int(idx[j]), Distance: math.Sqrt(dist[j])}
	}
	a.pack.PutScratch(s)
	return firstBad
}

// assignBatch validates and assigns a whole batch against this one
// snapshot — the single implementation behind both Server.AssignBatch and
// the HTTP batch handler. Client batches keep all-or-nothing semantics: a
// single invalid point fails the batch with its index named.
func (a *assigner) assignBatch(points []vec.Vector) ([]Assignment, error) {
	for i, p := range points {
		if len(p) != a.m.Dim {
			return nil, fmt.Errorf("serve: point %d has %d dimensions, model wants %d", i, len(p), a.m.Dim)
		}
	}
	out := make([]Assignment, len(points))
	if bad := a.assignInto(points, out); bad >= 0 {
		return nil, fmt.Errorf("point %d: %w", bad, errNumericRange)
	}
	return out, nil
}

// Server answers assignment queries over the active model. It is safe for
// concurrent use and implements http.Handler. Create with New.
type Server struct {
	active atomic.Pointer[assigner]
	// swapMu serializes swaps so generations stored in active are
	// monotonic; reloadMu serializes whole load+swap reload sequences so
	// a slow loader cannot reinstall a stale model over a newer one. The
	// query path takes neither.
	swapMu   sync.Mutex
	reloadMu sync.Mutex
	gen      int64
	loader   func() (*model.Model, error)
	mux      *http.ServeMux

	// Observability: the registry backs GET /metrics; the handles below
	// are looked up once here so the query path ticks them lock-free.
	reg        *obs.Registry
	started    time.Time
	assignHist *obs.Histogram
	batchHist  *obs.Histogram
	inflight   *obs.Gauge
	requests   *obs.Counter
	swaps      *obs.Counter
	binReqs    *obs.Counter // binary-framed assign requests
}

// New builds a Server over m. The model is retained and must not be
// mutated afterwards; the serving layer treats it as immutable.
func New(m *model.Model, opts Options) (*Server, error) {
	s := &Server{
		loader:  opts.Loader,
		reg:     obs.NewRegistry(),
		started: time.Now(),
	}
	s.assignHist = s.reg.Histogram("serve_assign_seconds", nil)
	s.batchHist = s.reg.Histogram("serve_assign_batch_seconds", nil)
	s.inflight = s.reg.Gauge("serve_inflight_requests")
	s.requests = s.reg.Counter("serve_requests_total")
	s.swaps = s.reg.Counter("serve_model_swaps_total")
	s.binReqs = s.reg.Counter("serve_binary_requests_total")
	if err := s.Swap(m); err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/assign", s.handleAssign)
	mux.HandleFunc("POST /v1/assign/batch", s.handleAssignBatch)
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("POST /v1/model/reload", s.handleReload)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Swap atomically replaces the active model. In-flight requests finish on
// the model they started with; requests that begin after Swap returns see
// the new one. The model must not be mutated after being handed over.
// The kernel-ready center pack is derived here, once per swap, and
// published atomically with the model.
func (s *Server) Swap(m *model.Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	a := &assigner{m: m, pack: m.Pack()}
	s.swapMu.Lock()
	s.gen++
	a.gen = s.gen
	s.active.Store(a)
	s.swapMu.Unlock()
	s.swaps.Inc()
	return nil
}

// Reload pulls a fresh model from the configured loader and swaps it in.
// Reloads are serialized end to end (load + swap), so two concurrent
// reloads racing a snapshot overwrite cannot install the older model last.
func (s *Server) Reload() error {
	if s.loader == nil {
		return errors.New("serve: no loader configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	m, err := s.loader()
	if err != nil {
		return fmt.Errorf("serve: reload: %w", err)
	}
	return s.Swap(m)
}

// Model returns the active model. Treat it as read-only.
func (s *Server) Model() *model.Model { return s.active.Load().m }

// Generation returns the active model's swap generation (1 for the model
// the server started with, incremented on every successful swap).
func (s *Server) Generation() int64 { return s.active.Load().gen }

// Assign answers a single query against the active model: the nearest
// center's index and the Euclidean distance to it. Like the HTTP
// singleton endpoint, it runs the scalar scan on one model snapshot;
// concurrent callers never wait for each other.
func (s *Server) Assign(p vec.Vector) (Assignment, error) {
	a := s.active.Load()
	if len(p) != a.m.Dim {
		return Assignment{}, fmt.Errorf("serve: point has %d dimensions, model wants %d", len(p), a.m.Dim)
	}
	return a.assign(p)
}

// AssignBatch answers a batch of queries against one consistent model
// snapshot: every point in the batch is assigned by the same model even if
// a swap lands mid-batch, through the columnar kernel.
func (s *Server) AssignBatch(points []vec.Vector) ([]Assignment, error) {
	return s.active.Load().assignBatch(points)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.mux.ServeHTTP(w, r)
}

// Metrics returns the server's metrics registry, so embedders (cmd/serve's
// -debug-addr) can expose the same metrics on a separate listener or add
// their own.
func (s *Server) Metrics() *obs.Registry { return s.reg }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// --- handlers ---------------------------------------------------------------

type assignRequest struct {
	Point vec.Vector `json:"point"`
}

type assignResponse struct {
	Cluster  int        `json:"cluster"`
	Center   vec.Vector `json:"center"`
	Distance float64    `json:"distance"`
}

// validatePoint maps a query point's shape problems to a typed error
// code ("" = valid). NaN/overflow is detected by the kernel, not here:
// scanning coordinates up front would put an extra O(dim) pass on the
// hot path to catch a case the kernel already reports as index -1.
func validatePoint(p vec.Vector, dim int) (code, msg string) {
	switch {
	case len(p) == 0:
		return CodeEmptyPoint, "missing or empty point"
	case len(p) != dim:
		return CodeDimMismatch, fmt.Sprintf("point has %d dimensions, model wants %d", len(p), dim)
	}
	return "", ""
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.assignHist.Observe(time.Since(start).Seconds()) }()
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	defer putBody(body)
	if isBinaryRequest(body.Bytes()) {
		s.handleAssignBinary(w, body.Bytes())
		return
	}
	req := singleReqPool.Get().(*assignRequest)
	defer singleReqPool.Put(req)
	req.Point = req.Point[:0]
	if !decodeJSON(w, body.Bytes(), req) {
		return
	}
	// Load the assigner once so cluster id and center come from the same
	// model even under a concurrent swap.
	a := s.active.Load()
	if code, msg := validatePoint(req.Point, a.m.Dim); code != "" {
		httpError(w, http.StatusBadRequest, code, msg)
		return
	}
	asg, err := a.assign(req.Point)
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeNumericRange, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, assignResponse{
		Cluster:  asg.Cluster,
		Center:   a.m.Centers[asg.Cluster],
		Distance: asg.Distance,
	})
}

type batchRequest struct {
	Points []vec.Vector `json:"points"`
}

type batchResponse struct {
	Assignments []Assignment `json:"assignments"`
	K           int          `json:"k"`
}

// validateBatch maps a batch's shape problems to a typed error code
// ("" = valid), covering the empty, oversized, zero-dim and ragged cases.
func validateBatch(points []vec.Vector, dim int) (code, msg string) {
	if len(points) == 0 {
		return CodeEmptyBatch, "missing points"
	}
	if len(points) > DefaultMaxBatch {
		return CodeTooLarge, fmt.Sprintf("batch of %d points exceeds limit %d", len(points), DefaultMaxBatch)
	}
	for i, p := range points {
		switch {
		case len(p) == 0:
			return CodeEmptyPoint, fmt.Sprintf("point %d is empty", i)
		case len(p) != dim:
			return CodeDimMismatch, fmt.Sprintf("point %d has %d dimensions, model wants %d", i, len(p), dim)
		}
	}
	return "", ""
}

func (s *Server) handleAssignBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.batchHist.Observe(time.Since(start).Seconds()) }()
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	defer putBody(body)
	if isBinaryRequest(body.Bytes()) {
		s.handleAssignBatchBinary(w, body.Bytes())
		return
	}
	req := batchReqPool.Get().(*batchRequest)
	defer batchReqPool.Put(req)
	req.Points = req.Points[:0]
	if !decodeJSON(w, body.Bytes(), req) {
		return
	}
	a := s.active.Load()
	if code, msg := validateBatch(req.Points, a.m.Dim); code != "" {
		status := http.StatusBadRequest
		if code == CodeTooLarge {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, code, msg)
		return
	}
	out := make([]Assignment, len(req.Points))
	if bad := a.assignInto(req.Points, out); bad >= 0 {
		httpError(w, http.StatusBadRequest, CodeNumericRange,
			fmt.Sprintf("point %d: %v", bad, errNumericRange))
		return
	}
	writeJSON(w, http.StatusOK, batchResponse{Assignments: out, K: a.m.K})
}

type modelResponse struct {
	K          int        `json:"k"`
	Dim        int        `json:"dim"`
	Generation int64      `json:"generation"`
	Counts     []int64    `json:"counts,omitempty"`
	Radii      []float64  `json:"radii,omitempty"`
	Meta       model.Meta `json:"meta"`
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	a := s.active.Load()
	writeJSON(w, http.StatusOK, modelResponse{
		K: a.m.K, Dim: a.m.Dim, Generation: a.gen,
		Counts: a.m.Counts, Radii: a.m.Radii, Meta: a.m.Meta,
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.loader == nil {
		httpError(w, http.StatusConflict, CodeNoLoader, "no snapshot source configured for reload")
		return
	}
	if err := s.Reload(); err != nil {
		httpError(w, http.StatusBadGateway, CodeReloadFailed, err.Error())
		return
	}
	a := s.active.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "reloaded", "k": a.m.K, "generation": a.gen,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	a := s.active.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "k": a.m.K, "dim": a.m.Dim, "generation": a.gen,
		"uptime_seconds": time.Since(s.started).Seconds(),
		"model": map[string]any{
			"algorithm":       a.m.Meta.Algorithm,
			"iterations":      a.m.Meta.Iterations,
			"trained_at_unix": a.m.Meta.TrainedAtUnix,
		},
		"build": obs.BuildInfo(),
	})
}

// --- plumbing ---------------------------------------------------------------

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Buffer and request-struct pools: the assign endpoints are dominated by
// encoding/json allocation at high QPS (body read buffer, decoded point
// slices, marshaled response), so all three are pooled. Decoding into a
// pooled request struct reuses its slice capacity (encoding/json fills
// existing backing arrays), so a warmed server decodes a singleton
// request with near-zero garbage; BenchmarkHTTPAssign records the delta.
var (
	bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

	singleReqPool = sync.Pool{New: func() any { return new(assignRequest) }}
	batchReqPool  = sync.Pool{New: func() any { return new(batchRequest) }}
)

// readBody reads the whole (bounded) request body into a pooled buffer.
// The caller must putBody it when done — after the response is written,
// since decoded values may alias the buffer.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	r.Body = http.MaxBytesReader(w, r.Body, defaultMaxBodyBytes)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		putBody(buf)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, CodeTooLarge, "request body too large")
		} else {
			httpError(w, http.StatusBadRequest, CodeBadBody, "reading request body: "+err.Error())
		}
		return nil, false
	}
	return buf, true
}

func putBody(buf *bytes.Buffer) {
	// Oversized one-off bodies are dropped rather than pinned in the pool.
	if buf.Cap() <= 1<<20 {
		bufPool.Put(buf)
	}
}

func decodeJSON(w http.ResponseWriter, body []byte, dst any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, CodeBadBody, "bad request body: "+err.Error())
		return false
	}
	if dec.More() {
		httpError(w, http.StatusBadRequest, CodeBadBody, "bad request body: trailing data after JSON value")
		return false
	}
	return true
}

// writeJSON encodes into a pooled buffer before touching the response, so
// an encoding failure can still surface as a 500 instead of a 200 with an
// empty body, and the marshal allocation is reused across requests.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"internal: response encoding failed","code":"internal"}` + "\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

func httpError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Code: code})
}
