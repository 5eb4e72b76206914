package gmeansmr

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// chromeTraceFile mirrors the Chrome trace-event format WithTrace writes.
type chromeTraceFile struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestWithTracePhaseSpansSumToWallTime is the trace acceptance gate: a
// traced G-means run writes a valid Chrome-trace file whose sequential
// "phase" spans (stage, init, round-N, merge, finalize) account for the
// run's wall time within 5%.
func TestWithTracePhaseSpansSumToWallTime(t *testing.T) {
	ds := mixturePoints(t, 4, 4, 4000, 3)
	var chrome, eventLog bytes.Buffer
	c, err := New(WithSeed(3), WithTrace(&chrome), WithTraceJSON(&eventLog))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := c.Run(context.Background(), FromPoints(ds.Points))
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 3 || res.K > 8 {
		t.Fatalf("k = %d for true k=4", res.K)
	}

	var out chromeTraceFile
	if err := json.Unmarshal(chrome.Bytes(), &out); err != nil {
		t.Fatalf("WithTrace output is not valid Chrome-trace JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" || len(out.TraceEvents) == 0 {
		t.Fatalf("unexpected trace shape: unit=%q events=%d", out.DisplayTimeUnit, len(out.TraceEvents))
	}

	var runDur, phaseSum float64 // µs
	var rounds int
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 {
			t.Fatalf("malformed event %+v", ev)
		}
		switch ev.Cat {
		case "run":
			if ev.Name == "clusterer-run" {
				runDur = ev.Dur
			}
		case "phase":
			phaseSum += ev.Dur
			if strings.HasPrefix(ev.Name, "round-") {
				rounds++
			}
		}
	}
	if runDur == 0 {
		t.Fatal("no clusterer-run span recorded")
	}
	if rounds != res.Iterations {
		t.Errorf("trace has %d round phases, run reported %d iterations", rounds, res.Iterations)
	}
	if wallUS := float64(wall.Microseconds()); runDur > wallUS {
		t.Errorf("run span (%v µs) exceeds measured wall time (%v µs)", runDur, wallUS)
	}
	// The driver's phases are sequential and non-overlapping; everything
	// between them is in-memory bookkeeping. Their sum must explain the
	// run's wall time within 5% either way.
	if phaseSum < 0.95*runDur || phaseSum > 1.05*runDur {
		t.Errorf("phase spans sum to %.0f µs, run wall is %.0f µs (ratio %.3f, want within 5%%)",
			phaseSum, runDur, phaseSum/runDur)
	}

	// The JSON event log must parse and agree on the span count.
	var log struct {
		Events []struct {
			Name string `json:"name"`
		} `json:"events"`
	}
	if err := json.Unmarshal(eventLog.Bytes(), &log); err != nil {
		t.Fatalf("WithTraceJSON output is not valid JSON: %v", err)
	}
	if len(log.Events) != len(out.TraceEvents) {
		t.Errorf("event log has %d spans, chrome trace has %d", len(log.Events), len(out.TraceEvents))
	}
}

// TestProgressEventStreamCompleteness pins the Progress contract: a
// multi-round G-means run emits exactly one event per round — strategy
// attached, per-round Duration, phase breakdown — plus exactly one
// closing merge event, for both merge configurations (explicit radius
// merges in the driver, MergeAuto merges in the facade).
func TestProgressEventStreamCompleteness(t *testing.T) {
	ds := mixturePoints(t, 4, 3, 3000, 7)
	merges := []struct {
		name string
		opt  Option
	}{
		{"explicit-radius", WithMergeRadius(1e-9)},
		{"auto", WithMergeRadius(MergeAuto)},
	}
	for _, merge := range merges {
		t.Run("columnar/"+merge.name, func(t *testing.T) {
			var events []Progress
			reg := NewRegistry()
			c, err := New(
				WithSeed(7),
				WithProgress(func(p Progress) { events = append(events, p) }),
				WithObserver(reg),
				merge.opt,
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(context.Background(), FromPoints(ds.Points))
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations < 2 {
				t.Fatalf("run converged in %d rounds; need a multi-round run", res.Iterations)
			}

			var mergeEvents int
			seenRound := make(map[int]bool)
			for _, ev := range events {
				if ev.Algorithm != AlgorithmGMeansMR {
					t.Errorf("event algorithm = %q", ev.Algorithm)
				}
				if ev.Strategy == "merge" {
					mergeEvents++
					if ev.Round != res.Iterations+1 {
						t.Errorf("merge event round = %d, want %d", ev.Round, res.Iterations+1)
					}
					continue
				}
				if seenRound[ev.Round] {
					t.Errorf("round %d emitted more than one event", ev.Round)
				}
				seenRound[ev.Round] = true
				if ev.Strategy == "" {
					t.Errorf("round %d event has no strategy", ev.Round)
				}
				if ev.Duration <= 0 {
					t.Errorf("round %d event has no duration", ev.Round)
				}
				if len(ev.Phases) == 0 {
					t.Errorf("round %d event has no phase breakdown", ev.Round)
				}
				var phaseSum time.Duration
				for _, d := range ev.Phases {
					phaseSum += d
				}
				if phaseSum > ev.Duration {
					t.Errorf("round %d phases sum to %v, exceeding round duration %v",
						ev.Round, phaseSum, ev.Duration)
				}
			}
			for round := 1; round <= res.Iterations; round++ {
				if !seenRound[round] {
					t.Errorf("round %d emitted no event", round)
				}
			}
			if len(seenRound) != res.Iterations {
				t.Errorf("saw events for %d rounds, run reported %d", len(seenRound), res.Iterations)
			}
			if mergeEvents != 1 {
				t.Errorf("saw %d merge events, want exactly 1", mergeEvents)
			}

			// The observer registry ticked once per test round.
			if got := reg.Counter("gmeans_rounds_total").Value(); got != int64(res.Iterations) {
				t.Errorf("gmeans_rounds_total = %d, want %d", got, res.Iterations)
			}
			if reg.Histogram("gmeans_round_seconds", nil).Count() != int64(res.Iterations) {
				t.Errorf("gmeans_round_seconds count = %d, want %d",
					reg.Histogram("gmeans_round_seconds", nil).Count(), res.Iterations)
			}
		})
	}
}
