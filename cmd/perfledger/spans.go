package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// spanRecord is one harness span: a call from the benchmark into a layer
// of the program, or a group of such calls. Times are seconds since the
// recorder started; Parent is 0 for a root span.
type spanRecord struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Run    string  `json:"run"`
	Req    int64   `json:"req,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths call it unconditionally. Safe
// for concurrent use.
type recorder struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []spanRecord
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, t0: time.Now()}
}

// span is an open span; end closes it. The zero span, from a nil
// recorder, ignores end.
type span struct {
	r *recorder
	i int
}

// start opens a span named name under parent (0 for a root span) and
// returns it; req tags the spans of one request.
func (r *recorder) start(name string, parent int64, req int64) span {
	if r == nil {
		return span{}
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, spanRecord{ID: id, Parent: parent, Run: r.run, Req: req, Name: name, Start: now, End: now})
	return span{r: r, i: int(id)}
}

// id returns the span's identifier, for use as a parent.
func (s span) id() int64 { return int64(s.i) }

// end stamps the span's end time.
func (s span) end() {
	if s.r == nil {
		return
	}
	now := time.Since(s.r.t0).Seconds()
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	s.r.spans[s.i-1].End = now
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []spanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRecord(nil), r.spans...)
}

// writeSpans writes spans to path as one JSON document.
func writeSpans(path string, spans []spanRecord) error {
	b, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
