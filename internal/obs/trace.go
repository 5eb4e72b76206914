package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// maxTraceEvents bounds a trace's memory: a span ended beyond the cap is
// counted instead of recorded, and the Chrome export reports the count as
// otherData.dropped. At ~100 events per MapReduce job the cap covers
// thousands of jobs; a week-long streaming run cannot OOM the recorder.
const maxTraceEvents = 1 << 19

// SpanEvent is one completed span of a trace: a named, categorized slice
// of wall time with optional key/value arguments (record counts, byte
// volumes, counter snapshots).
type SpanEvent struct {
	// Name labels the span ("map-task", "round-3", "job:gmeans-lastpass-round-2").
	Name string
	// Cat groups spans for filtering: "phase" for the driver's sequential
	// run segments, "round-phase" for within-round segments, "mr" for
	// engine phases, "task" for per-task spans, "job" for whole jobs.
	Cat string
	// TID is the lane the span renders on in chrome://tracing — the map or
	// reduce task id for task spans, 0 for driver spans.
	TID int64
	// Start is the span's wall-clock start.
	Start time.Time
	// Dur is the span's wall duration.
	Dur time.Duration
	// Args carries span attributes (throughput, counters, strategy names).
	Args map[string]any
}

// Trace records spans for one run. Safe for concurrent use; every method
// is nil-tolerant, so instrumented code holds a possibly-nil *Trace and
// pays one pointer test when tracing is off.
type Trace struct {
	mu      sync.Mutex
	start   time.Time
	events  []SpanEvent
	dropped int64
}

// NewTrace returns an empty trace whose timestamps are relative to now.
func NewTrace() *Trace {
	return &Trace{start: time.Now()}
}

// Enabled reports whether spans will actually be recorded.
func (t *Trace) Enabled() bool { return t != nil }

// StartSpan opens a span. End it with Span.End; spans may overlap freely
// (concurrent tasks each hold their own). A nil trace returns a nil span,
// and ending a nil span is a no-op.
func (t *Trace) StartSpan(name, cat string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, cat: cat, start: time.Now()}
}

// record appends a completed span.
func (t *Trace) record(ev SpanEvent) {
	t.mu.Lock()
	if len(t.events) >= maxTraceEvents {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Events returns a copy of the recorded spans, ordered by end time.
func (t *Trace) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, len(t.events))
	copy(out, t.events)
	return out
}

// Reset discards every recorded span, keeping the backing storage — the
// steady-state shape benchmarks measure.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.dropped = 0
	t.start = time.Now()
	t.mu.Unlock()
}

// Span is one open span. Created by Trace.StartSpan; a nil Span ignores
// every call.
type Span struct {
	t     *Trace
	name  string
	cat   string
	tid   int64
	start time.Time
	args  map[string]any
}

// SetTID assigns the span's rendering lane (task id).
func (s *Span) SetTID(id int64) *Span {
	if s != nil {
		s.tid = id
	}
	return s
}

// SetArg attaches one key/value attribute.
func (s *Span) SetArg(key string, v any) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = v
	return s
}

// End closes the span and records it.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.record(SpanEvent{
		Name:  s.name,
		Cat:   s.cat,
		TID:   s.tid,
		Start: s.start,
		Dur:   time.Since(s.start),
		Args:  s.args,
	})
}

// chromeEvent is one complete ("ph":"X") event of the Chrome trace-event
// format; timestamps and durations are in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the trace in the Chrome trace-event format:
// load the file in chrome://tracing or https://ui.perfetto.dev to see the
// run's phases and tasks on a timeline. The top-level otherData object
// carries the number of spans dropped over the recording cap.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	start, dropped := t.start, t.dropped
	events := make([]chromeEvent, len(t.events))
	for i, ev := range t.events {
		events[i] = chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   "X",
			TS:   float64(ev.Start.Sub(start)) / float64(time.Microsecond),
			Dur:  float64(ev.Dur) / float64(time.Microsecond),
			PID:  1,
			TID:  ev.TID,
			Args: ev.Args,
		}
	}
	t.mu.Unlock()
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		OtherData       struct {
			Dropped int64 `json:"dropped"`
		} `json:"otherData"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	out.OtherData.Dropped = dropped
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("obs: encoding chrome trace: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
