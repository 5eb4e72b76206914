package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total")
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored: counters only go up
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	if r.Counter("jobs_total") != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("inflight")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d, want 5", g.Value())
	}

	// Nil handles and a nil registry must be inert, not panic.
	var nilReg *Registry
	nilReg.Counter("x").Inc()
	nilReg.Gauge("x").Set(1)
	nilReg.Histogram("x", nil).Observe(1)
	var buf bytes.Buffer
	nilReg.WritePrometheus(&buf)
	if buf.Len() != 0 {
		t.Error("nil registry wrote output")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4, 8})
	// 100 observations uniform in (0,1]: p50 ≈ 0.5 within bucket 1.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("sum = %g, want 50.5", got)
	}
	if p := h.P50(); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("p50 = %g, want 0.5 (interpolated)", p)
	}
	// Push 100 more into the 2-4 bucket: p95 interpolates inside (2,4].
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	p95 := h.P95()
	if p95 <= 2 || p95 > 4 {
		t.Errorf("p95 = %g, want in (2,4]", p95)
	}
	// Values past every bound clamp to the largest bound.
	h2 := r.Histogram("overflow", []float64{1})
	h2.Observe(100)
	if q := h2.P99(); q != 1 {
		t.Errorf("overflow quantile = %g, want clamp to 1", q)
	}
	// NaN observations are discarded.
	h2.Observe(math.NaN())
	if h2.Count() != 1 {
		t.Errorf("NaN was recorded")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewRegistry().Histogram("lat", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8.0) > 1e-6 {
		t.Errorf("sum = %g, want 8.0", h.Sum())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve_model_swaps_total").Add(2)
	r.Gauge("serve_inflight_requests").Set(1)
	r.Counter(`serve_requests{path="/v1/assign"}`).Add(9)
	h := r.Histogram("serve_assign_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE serve_assign_seconds histogram\n",
		"serve_assign_seconds_bucket{le=\"0.001\"} 1\n",
		"serve_assign_seconds_bucket{le=\"0.01\"} 1\n",
		"serve_assign_seconds_bucket{le=\"+Inf\"} 2\n",
		"serve_assign_seconds_count 2\n",
		"# TYPE serve_inflight_requests gauge\n",
		"serve_inflight_requests 1\n",
		"# TYPE serve_model_swaps_total counter\n",
		"serve_model_swaps_total 2\n",
		"# TYPE serve_requests counter\n",
		"serve_requests{path=\"/v1/assign\"} 9\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Output must be deterministic.
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if buf.String() != buf2.String() {
		t.Error("WritePrometheus is not deterministic")
	}
}

func TestHistogramLabelsExpandInBuckets(t *testing.T) {
	r := NewRegistry()
	r.Histogram(`lat{path="/x"}`, []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`lat_bucket{path="/x",le="1"} 1`,
		`lat_bucket{path="/x",le="+Inf"} 1`,
		`lat_sum{path="/x"} 0.5`,
		`lat_count{path="/x"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labelled histogram output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	s := tr.StartSpan("round-1", "phase").SetArg("k", 3)
	time.Sleep(time.Millisecond)
	inner := tr.StartSpan("map-task", "task").SetTID(7)
	inner.End()
	s.End()

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Events are recorded in end order: inner first.
	if evs[0].Name != "map-task" || evs[0].TID != 7 {
		t.Errorf("inner span = %+v", evs[0])
	}
	if evs[1].Name != "round-1" || evs[1].Cat != "phase" || evs[1].Args["k"] != 3 {
		t.Errorf("outer span = %+v", evs[1])
	}
	if evs[1].Dur < time.Millisecond {
		t.Errorf("outer span dur = %v, want >= 1ms", evs[1].Dur)
	}

	// Nil trace and nil span are inert.
	var nilTrace *Trace
	nilTrace.StartSpan("x", "y").SetArg("a", 1).SetTID(3).End()
	if nilTrace.Enabled() || nilTrace.Events() != nil {
		t.Error("nil trace is not inert")
	}
	if err := nilTrace.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

func TestTraceChromeExport(t *testing.T) {
	tr := NewTrace()
	tr.StartSpan("stage", "phase").End()
	tr.StartSpan("reduce-task", "task").SetTID(2).SetArg("groups", int64(5)).End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 2 || out.DisplayTimeUnit != "ms" {
		t.Fatalf("unexpected export shape: %+v", out)
	}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 || ev.TS < 0 || ev.Dur < 0 {
			t.Errorf("malformed event %+v", ev)
		}
	}
	if out.TraceEvents[1].Args["groups"] != float64(5) {
		t.Errorf("args lost in export: %+v", out.TraceEvents[1])
	}
}

// TestTraceDroppedExportAndReset checks that spans ended over the
// recording cap are counted, not recorded, that the Chrome export reports
// the count as otherData.dropped, and that Reset clears both.
func TestTraceDroppedExportAndReset(t *testing.T) {
	export := func(tr *Trace) (events int, dropped int64) {
		t.Helper()
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var out struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
			OtherData   *struct {
				Dropped int64 `json:"dropped"`
			} `json:"otherData"`
		}
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil || out.OtherData == nil {
			t.Fatalf("chrome trace without otherData (%v): %s", err, buf.Bytes())
		}
		return len(out.TraceEvents), out.OtherData.Dropped
	}

	tr := NewTrace()
	// A zeroed slice one short of the cap stands in for recorded spans
	// (its pages are never touched), so the cap is reached cheaply.
	tr.events = make([]SpanEvent, maxTraceEvents-1)
	tr.StartSpan("last", "phase").End()
	tr.StartSpan("over", "phase").End()
	tr.StartSpan("over", "phase").End()
	if n := len(tr.events); n != maxTraceEvents || tr.events[n-1].Name != "last" {
		t.Fatalf("%d spans recorded, last %q: want the cap, ending with \"last\"", n, tr.events[n-1].Name)
	}
	tr.events = tr.events[maxTraceEvents-1:] // export only the real span
	if n, dropped := export(tr); n != 1 || dropped != 2 {
		t.Errorf("export: %d spans, %d dropped; want 1 and 2", n, dropped)
	}
	tr.Reset()
	if n, dropped := export(tr); n != 0 || dropped != 0 {
		t.Errorf("after Reset: %d spans, %d dropped; want 0 and 0", n, dropped)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.StartSpan("t", "task").SetTID(id).End()
			}
		}(int64(w))
	}
	wg.Wait()
	if got := len(tr.Events()); got != 800 {
		t.Errorf("got %d events, want 800", got)
	}
}

func TestBuildInfo(t *testing.T) {
	info := BuildInfo()
	for _, key := range []string{"version", "commit", "go"} {
		if info[key] == "" {
			t.Errorf("BuildInfo missing %q", key)
		}
	}
}
