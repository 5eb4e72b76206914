package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestBackoffFullJitter(t *testing.T) {
	p := Policy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}.WithDefaults()
	rng := rand.New(rand.NewSource(1))
	ceilings := []time.Duration{
		10 * time.Millisecond, // failures=1
		20 * time.Millisecond, // 2
		40 * time.Millisecond, // 3
		80 * time.Millisecond, // 4
		80 * time.Millisecond, // 5: capped
		80 * time.Millisecond, // 6: capped
	}
	for i, ceil := range ceilings {
		for trial := 0; trial < 200; trial++ {
			d := p.Backoff(i+1, rng)
			if d < 0 || d > ceil {
				t.Fatalf("Backoff(failures=%d) = %v outside [0, %v]", i+1, d, ceil)
			}
		}
	}
	// failures < 1 clamps rather than panicking.
	if d := p.Backoff(0, rng); d < 0 || d > 10*time.Millisecond {
		t.Errorf("Backoff(0) = %v", d)
	}
}

func TestBackoffDeterministicUnderSeed(t *testing.T) {
	p := Policy{}.WithDefaults()
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 1; i < 10; i++ {
		if da, db := p.Backoff(i, a), p.Backoff(i, b); da != db {
			t.Fatalf("same seed diverged at failure %d: %v vs %v", i, da, db)
		}
	}
}

func TestClassify(t *testing.T) {
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()

	cases := []struct {
		name string
		ctx  context.Context
		err  error
		want Class
	}{
		{"plain error", bg, errors.New("boom"), Permanent},
		{"transient blamed", bg, Transient(errors.New("conn refused"), true), TransientBlamed},
		{"transient blameless", bg, Transient(errors.New("stale"), false), TransientBlameless},
		{"wrapped transient", bg, fmt.Errorf("rpc: %w", Transient(errors.New("x"), true)), TransientBlamed},
		{"per-try deadline", bg, context.DeadlineExceeded, TransientBlamed},
		{"per-try deadline wrapped", bg, fmt.Errorf("Post: %w", context.DeadlineExceeded), TransientBlamed},
		{"caller cancelled beats blame", cancelled, Transient(errors.New("x"), true), CallerAbort},
		{"caller cancelled beats permanent", cancelled, errors.New("boom"), CallerAbort},
		{"nil ctx", nil, Transient(errors.New("x"), false), TransientBlameless},
	}
	for _, tc := range cases {
		if got := Classify(tc.ctx, tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(Policy{BreakerThreshold: 3, BreakerCooldown: time.Second})
	b.now = func() time.Time { return now }

	opened := 0
	b.OnOpen = func() { opened++ }

	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("new breaker not closed")
	}
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("breaker opened before threshold")
	}
	b.Failure() // third consecutive: opens
	if b.State() != BreakerOpen || opened != 1 {
		t.Fatalf("state=%v opened=%d after threshold", b.State(), opened)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed work inside cooldown")
	}

	// Cooldown elapses: one half-open probe, and only one.
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("breaker did not admit a probe after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after probe admit = %v", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}

	// Probe fails: re-open, new cooldown.
	b.Failure()
	if b.State() != BreakerOpen || opened != 2 {
		t.Fatalf("failed probe: state=%v opened=%d", b.State(), opened)
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected work")
	}

	// Success resets the consecutive-failure count.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("non-consecutive failures opened the breaker")
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Error("nil breaker rejected work")
	}
	b.Success()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Error("nil breaker state not closed")
	}
}

func TestExhaustedHelper(t *testing.T) {
	inner := errors.New("last failure")
	err := Exhausted("task 3 failed 4 attempts", inner)
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, inner) {
		t.Fatalf("Exhausted chain broken: %v", err)
	}
	// An elapsed budget can run out with no failed attempt to wrap.
	if err := Exhausted("wave exceeded elapsed budget", nil); !errors.Is(err, ErrExhausted) || err.Error() != "retry: wave exceeded elapsed budget" {
		t.Fatalf("Exhausted(nil) = %q", err)
	}
}
