package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// simClock is a simulated clock: sleeping jumps to the wake-up time and
// requests advance it by their service time.
type simClock struct{ t time.Duration }

func (c *simClock) now() time.Duration { return c.t }

func (c *simClock) sleepUntil(t time.Duration) { c.t = max(c.t, t) }

func TestOpenLoopStallInflatesQueuedRequests(t *testing.T) {
	ms := time.Millisecond
	clk := &simClock{}
	due := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 4 * ms, 10 * ms}
	service := []time.Duration{ms / 10, 7 * ms / 2, ms / 10, ms / 10, ms / 10, ms / 10}
	recs := runOpenLoop(context.Background(), clk, due,
		func(i int) error { clk.t += service[i]; return nil }, nil)
	got := accountOpenLoop(recs)

	// Request 1 stalls from 1 ms to 4.5 ms. Requests 2–4 were due during
	// the stall and are sent only when the connection frees up.
	wantDue := []float64{0.1, 3.5, 2.6, 1.7, 0.8, 0.1}
	wantSend := []float64{0.1, 3.5, 0.1, 0.1, 0.1, 0.1}
	wantWait := []float64{0, 0, 2.5, 1.6, 0.7, 0}
	for i := range due {
		if !near(got.FromDue[i], wantDue[i]) || !near(got.FromSend[i], wantSend[i]) || !near(got.ClientWait[i], wantWait[i]) {
			t.Errorf("request %d: from due %.3f ms, from send %.3f ms, client wait %.3f ms; want %.3f, %.3f, %.3f",
				i, got.FromDue[i], got.FromSend[i], got.ClientWait[i], wantDue[i], wantSend[i], wantWait[i])
		}
		// The connection was never idle while a request waited, so none of
		// the wait is the generator's.
		if got.GenLate[i] != 0 {
			t.Errorf("request %d: generator lateness %.3f ms, want 0", i, got.GenLate[i])
		}
	}
	// Measured from send time, the stall would hide behind one slow
	// request; from due time it shows in four.
	if p := percentile(got.FromDue, 0.5); !near(p, 0.8) {
		t.Errorf("median from due = %.3f ms, want 0.8", p)
	}
	if p := percentile(got.FromSend, 0.5); !near(p, 0.1) {
		t.Errorf("median from send = %.3f ms, want 0.1", p)
	}
}

func TestOpenLoopFailuresCountAsInfiniteLatency(t *testing.T) {
	clk := &simClock{}
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	recs := runOpenLoop(context.Background(), clk, due,
		func(i int) error {
			clk.t += time.Millisecond / 10
			if i == 1 {
				return errors.New("refused")
			}
			return nil
		},
		func(i int) error {
			if i == 2 {
				return errors.New("wrong cluster")
			}
			return nil
		})
	got := accountOpenLoop(recs)
	if got.Failed != 2 {
		t.Fatalf("failed = %d, want 2", got.Failed)
	}
	for _, i := range []int{1, 2} {
		if !math.IsInf(got.FromDue[i], 1) || !math.IsInf(got.FromSend[i], 1) {
			t.Errorf("request %d failed but has latency %g / %g", i, got.FromDue[i], got.FromSend[i])
		}
	}
	if !near(got.FromDue[0], 0.1) {
		t.Errorf("request 0: from due %g ms, want 0.1", got.FromDue[0])
	}
}

func TestOpenLoopGeneratorLatenessIsSeparated(t *testing.T) {
	// The generator wakes 0.3 ms late for an idle connection: all of the
	// wait is its own.
	clk := &lateClock{late: 3 * time.Millisecond / 10}
	recs := runOpenLoop(context.Background(), clk, []time.Duration{time.Millisecond},
		func(int) error { clk.t += time.Millisecond / 10; return nil }, nil)
	got := accountOpenLoop(recs)
	if !near(got.GenLate[0], 0.3) || !near(got.ClientWait[0], 0.3) || !near(got.FromDue[0], 0.4) {
		t.Errorf("gen late %.3f, client wait %.3f, from due %.3f; want 0.3, 0.3, 0.4", got.GenLate[0], got.ClientWait[0], got.FromDue[0])
	}
}

type lateClock struct {
	simClock
	late time.Duration
}

func (c *lateClock) sleepUntil(t time.Duration) { c.t = max(c.t, t+c.late) }

func TestPoissonScheduleIsSeededAndBounded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 1000, time.Second)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("schedules of %d and %d arrivals, want equal and about 1000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || a[i] >= time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
