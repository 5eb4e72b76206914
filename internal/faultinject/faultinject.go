// Package faultinject is a deterministic, scenario-scripted fault plane
// for the distributed backend. A Scenario is a seedable list of rules
// ("the third POST to /v1/task/map returns a 500", "every shuffle fetch
// gains 40ms of latency"); an Injector compiled from it wraps either the
// master's outbound HTTP transport (Transport) or the worker's inbound
// mux (Middleware) and perturbs matching requests.
//
// The plane is off by default and free when off: a nil *Injector's
// Transport and Middleware return their argument unchanged, so production
// paths carry no wrapper at all. Scenarios serialize to JSON and travel
// to worker subprocesses through the MRDIST_FAULT_SCENARIO environment
// variable, which the worker consults before serving.
//
// Determinism: probabilistic rules draw from a rand.Rand seeded with
// Scenario.Seed, and rule bookkeeping (Skip/Count) is sequential under a
// lock, so a scenario replays identically given the same request order.
// The chaos harness (cmd/stress) prints the seed of a failing scenario
// precisely so it can be re-run.
package faultinject

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvScenario carries a JSON-encoded Scenario to worker subprocesses.
const EnvScenario = "MRDIST_FAULT_SCENARIO"

// Kind names one fault shape.
type Kind string

// Fault kinds. All apply to both the master-side Transport and the
// worker-side Middleware except where noted.
const (
	// KindRefuse fails the request before any bytes move: the transport
	// synthesizes a dial error, the middleware aborts the connection.
	KindRefuse Kind = "refuse"
	// KindLatency delays the request by Latency, then proceeds normally.
	KindLatency Kind = "latency"
	// KindTruncate lets the response begin, then cuts it mid-body so the
	// reader sees an unexpected EOF inside a GMWR frame.
	KindTruncate Kind = "truncate"
	// KindCorrupt flips response-body bytes past the status byte, turning
	// a well-formed reply into a corrupt GMWR frame.
	KindCorrupt Kind = "corrupt"
	// KindHTTP500 answers with a synthesized 500 without doing the work.
	KindHTTP500 Kind = "http500"
	// KindHang stalls the request: for Latency if set, else until the
	// request's context is cancelled. Either way no response arrives
	// before the caller's per-try deadline.
	KindHang Kind = "hang"
	// KindKill terminates the worker process abruptly (middleware only;
	// the transport passes it through).
	KindKill Kind = "kill"
)

// Rule scripts one fault against matching requests. Rules are evaluated
// in order; the first rule that matches and admits a request injects.
type Rule struct {
	// Match is a URL-path substring ("" matches every request).
	Match string `json:"match,omitempty"`
	// Kind selects the fault shape.
	Kind Kind `json:"kind"`
	// Prob is the per-request injection probability in (0, 1]; zero
	// means always (deterministic scenarios are the common case).
	Prob float64 `json:"prob,omitempty"`
	// Skip passes through this many matching requests before the rule
	// starts injecting ("the fourth push fails").
	Skip int `json:"skip,omitempty"`
	// Count caps total injections by this rule; zero means unlimited
	// ("a burst of three 5xx, then healthy").
	Count int `json:"count,omitempty"`
	// Latency is the delay for KindLatency and the stall bound for
	// KindHang, in milliseconds (so scenarios stay JSON-friendly).
	Latency int `json:"latency_ms,omitempty"`
}

func (r Rule) delay() time.Duration {
	if r.Latency <= 0 {
		return 25 * time.Millisecond
	}
	return time.Duration(r.Latency) * time.Millisecond
}

// Scenario is a named, seeded fault script.
type Scenario struct {
	Name  string `json:"name"`
	Seed  int64  `json:"seed,omitempty"`
	Rules []Rule `json:"rules"`
}

// Marshal encodes the scenario for EnvScenario.
func (sc Scenario) Marshal() (string, error) {
	b, err := json.Marshal(sc)
	if err != nil {
		return "", fmt.Errorf("faultinject: marshal scenario %q: %w", sc.Name, err)
	}
	return string(b), nil
}

// ParseScenario decodes a Marshal-encoded scenario.
func ParseScenario(s string) (Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal([]byte(s), &sc); err != nil {
		return Scenario{}, fmt.Errorf("faultinject: parse scenario: %w", err)
	}
	return sc, nil
}

// Injector applies a scenario to requests. The zero of *Injector (nil)
// is a valid, free no-op.
type Injector struct {
	scenario Scenario

	mu    sync.Mutex
	rng   *rand.Rand
	seen  []int // matching requests observed per rule (drives Skip)
	fired []int // injections performed per rule (drives Count)

	total atomic.Int64
}

// New compiles a scenario. A scenario with no rules yields a nil
// Injector, keeping the hot path wrapper-free.
func New(sc Scenario) *Injector {
	if len(sc.Rules) == 0 {
		return nil
	}
	return &Injector{
		scenario: sc,
		rng:      rand.New(rand.NewSource(sc.Seed)),
		seen:     make([]int, len(sc.Rules)),
		fired:    make([]int, len(sc.Rules)),
	}
}

// FromEnv compiles the scenario in EnvScenario, if any. It returns nil
// when the variable is unset or empty; a malformed value is an error so
// a chaos run never silently degrades to a fault-free one.
func FromEnv() (*Injector, error) {
	raw := os.Getenv(EnvScenario)
	if raw == "" {
		return nil, nil
	}
	sc, err := ParseScenario(raw)
	if err != nil {
		return nil, err
	}
	return New(sc), nil
}

// Scenario returns the compiled scenario (zero for nil).
func (in *Injector) Scenario() Scenario {
	if in == nil {
		return Scenario{}
	}
	return in.scenario
}

// Injections reports the total number of faults injected so far.
func (in *Injector) Injections() int64 {
	if in == nil {
		return 0
	}
	return in.total.Load()
}

// RuleInjections reports per-rule injection counts, index-aligned with
// Scenario().Rules.
func (in *Injector) RuleInjections() []int {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]int, len(in.fired))
	copy(out, in.fired)
	return out
}

// pick returns the first rule that matches path and admits an injection
// now, or nil. Bookkeeping and RNG draws happen under the lock so a
// seeded scenario is deterministic for a fixed request order.
func (in *Injector) pick(path string) *Rule {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range in.scenario.Rules {
		r := &in.scenario.Rules[i]
		if r.Match != "" && !strings.Contains(path, r.Match) {
			continue
		}
		in.seen[i]++
		if in.seen[i] <= r.Skip {
			continue
		}
		if r.Count > 0 && in.fired[i] >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.rng.Float64() >= r.Prob {
			continue
		}
		in.fired[i]++
		in.total.Add(1)
		return r
	}
	return nil
}

// ---- master side: http.RoundTripper ----

// Transport wraps base with the scenario. A nil Injector returns base
// unchanged; a nil base means http.DefaultTransport.
func (in *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if in == nil {
		return base
	}
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{in: in, base: base}
}

type transport struct {
	in   *Injector
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := t.in.pick(req.URL.Path)
	if r == nil {
		return t.base.RoundTrip(req)
	}
	switch r.Kind {
	case KindRefuse:
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("faultinject: connection refused")}
	case KindLatency:
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(r.delay()):
		}
		return t.base.RoundTrip(req)
	case KindHang:
		// Unlike latency, a hang never lets the request through: the
		// caller's deadline is the only exit.
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(10 * r.delay()):
			return nil, &net.OpError{Op: "read", Net: "tcp", Err: errors.New("faultinject: hang elapsed")}
		}
	case KindHTTP500:
		return &http.Response{
			Status:     "500 Internal Server Error",
			StatusCode: http.StatusInternalServerError,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     make(http.Header),
			Body:       io.NopCloser(strings.NewReader("faultinject: injected server error\n")),
			Request:    req,
		}, nil
	case KindTruncate:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		resp.Body = &truncateBody{rc: resp.Body, remain: truncateAfter}
		resp.ContentLength = -1
		return resp, nil
	case KindCorrupt:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		resp.Body = &corruptBody{rc: resp.Body}
		return resp, nil
	default: // KindKill has no transport meaning
		return t.base.RoundTrip(req)
	}
}

// truncateAfter is how many response bytes survive a truncation fault:
// past the status byte and into — but not through — the first GMWR
// frame's envelope, the nastiest place to cut.
const truncateAfter = 8

type truncateBody struct {
	rc     io.ReadCloser
	remain int
}

func (b *truncateBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.rc.Read(p)
	b.remain -= n
	if err == nil && b.remain <= 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncateBody) Close() error { return b.rc.Close() }

// corruptOffset preserves the leading status byte so corruption reads as
// "the worker answered, the frame is garbage" rather than a bad status.
const corruptOffset = 1

type corruptBody struct {
	rc  io.ReadCloser
	off int
}

func (b *corruptBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	for i := 0; i < n; i++ {
		if b.off+i >= corruptOffset {
			p[i] ^= 0xA5
		}
	}
	b.off += n
	return n, err
}

func (b *corruptBody) Close() error { return b.rc.Close() }

// ---- worker side: http middleware ----

// Middleware wraps next with the scenario. A nil Injector returns next
// unchanged.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	if in == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r := in.pick(req.URL.Path)
		if r == nil {
			next.ServeHTTP(w, req)
			return
		}
		switch r.Kind {
		case KindRefuse:
			panic(http.ErrAbortHandler)
		case KindLatency:
			select {
			case <-req.Context().Done():
				panic(http.ErrAbortHandler)
			case <-time.After(r.delay()):
			}
			next.ServeHTTP(w, req)
		case KindHang:
			// Stall without answering; the client's per-try deadline or
			// disconnect ends it, so worker goroutines don't pile up
			// past the caller's patience.
			select {
			case <-req.Context().Done():
			case <-time.After(10 * r.delay()):
			}
			panic(http.ErrAbortHandler)
		case KindHTTP500:
			http.Error(w, "faultinject: injected server error", http.StatusInternalServerError)
		case KindKill:
			os.Exit(137) // abrupt death, as if SIGKILLed
		case KindTruncate:
			next.ServeHTTP(&truncateWriter{w: w, remain: truncateAfter}, req)
		case KindCorrupt:
			next.ServeHTTP(&corruptWriter{w: w}, req)
		default:
			next.ServeHTTP(w, req)
		}
	})
}

// truncateWriter forwards the first remain bytes, flushes them onto the
// wire, then aborts the connection mid-response.
type truncateWriter struct {
	w      http.ResponseWriter
	remain int
}

func (t *truncateWriter) Header() http.Header { return t.w.Header() }

func (t *truncateWriter) WriteHeader(code int) { t.w.WriteHeader(code) }

func (t *truncateWriter) Write(p []byte) (int, error) {
	if t.remain <= 0 {
		panic(http.ErrAbortHandler)
	}
	if len(p) > t.remain {
		p = p[:t.remain]
	}
	n, err := t.w.Write(p)
	t.remain -= n
	if t.remain <= 0 {
		if f, ok := t.w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	return n, err
}

// corruptWriter XORs every body byte past the status byte.
type corruptWriter struct {
	w   http.ResponseWriter
	off int
}

func (c *corruptWriter) Header() http.Header { return c.w.Header() }

func (c *corruptWriter) WriteHeader(code int) { c.w.WriteHeader(code) }

func (c *corruptWriter) Write(p []byte) (int, error) {
	q := make([]byte, len(p))
	copy(q, p)
	for i := range q {
		if c.off+i >= corruptOffset {
			q[i] ^= 0xA5
		}
	}
	n, err := c.w.Write(q)
	c.off += n
	return n, err
}
