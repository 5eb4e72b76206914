// Package retry is the single failure-handling policy of the distributed
// backend: per-attempt deadlines, exponential backoff with full jitter, a
// max-elapsed budget, and a per-peer circuit breaker. internal/mrdist owns
// scheduling (which worker runs which task) and runs every attempt in one
// wave loop, map-output recovery included; this package owns *when a
// failed operation may run again and what its failure means* — so every
// RPC path classifies and paces failures the same way instead of each
// call site inventing its own MaxAttempts/instant-requeue logic.
//
// Error classification is a three-way split:
//
//   - caller aborts (the job context was cancelled or hit its deadline):
//     never retried, never blamed on the peer that happened to be serving
//     the request — a clean shutdown must not poison healthy workers;
//   - transient failures (transport errors, per-attempt timeouts, 5xx
//     responses, corrupt reply frames): retried under the policy, with
//     the executing peer optionally blamed (fed to its breaker);
//   - permanent failures (deterministic task errors, 4xx responses):
//     surfaced immediately.
//
// Everything is deterministic under a seeded RNG, which is what lets the
// chaos harness (cmd/stress) reproduce a failing schedule from a seed.
package retry

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// ErrExhausted marks an operation that failed after the policy's attempt
// and elapsed budgets were spent. Callers detect it with errors.Is; the
// wrapped chain retains the last underlying failure.
var ErrExhausted = errors.New("retry: budget exhausted")

// Policy is one uniform retry/timeout/backoff configuration. The zero
// value selects the defaults below via WithDefaults; fields are plain so
// tests and CLIs can assemble policies literally.
type Policy struct {
	// MaxAttempts bounds executions per operation, first try included.
	// Default 4.
	MaxAttempts int
	// PerTryTimeout is the deadline of one attempt's RPC, layered under
	// the caller's context (whichever expires first wins). Default 15s.
	PerTryTimeout time.Duration
	// BaseBackoff is the backoff ceiling after the first failure; the
	// ceiling doubles per attempt up to MaxBackoff, and the actual delay
	// is drawn uniformly from [0, ceiling] ("full jitter"). Default 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff ceiling. Default 1s.
	MaxBackoff time.Duration
	// MaxElapsed bounds the total time one wave of tasks may spend across
	// all attempts and backoffs, measured from the wave's start. Zero
	// means no elapsed budget; the default is 2m.
	MaxElapsed time.Duration
	// BreakerThreshold is how many consecutive blamed failures open a
	// peer's circuit breaker. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects a peer before
	// admitting one half-open probe. Default 2s.
	BreakerCooldown time.Duration
}

// WithDefaults fills zero fields with the package defaults.
func (p Policy) WithDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.PerTryTimeout <= 0 {
		p.PerTryTimeout = 15 * time.Second
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.MaxElapsed == 0 {
		p.MaxElapsed = 2 * time.Minute
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 3
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 2 * time.Second
	}
	return p
}

// Backoff returns the delay before re-attempting after `failures` failed
// attempts (failures >= 1): full jitter over an exponentially growing
// ceiling. rng must not be shared without external synchronization.
func (p Policy) Backoff(failures int, rng *rand.Rand) time.Duration {
	if failures < 1 {
		failures = 1
	}
	ceiling := p.BaseBackoff
	for i := 1; i < failures && ceiling < p.MaxBackoff; i++ {
		ceiling *= 2
	}
	if ceiling > p.MaxBackoff {
		ceiling = p.MaxBackoff
	}
	if ceiling <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(ceiling) + 1))
}

// transientError wraps a failure worth re-attempting. Blame reports
// whether the executing peer itself is suspect (transport failures,
// per-attempt timeouts, 5xx: yes; a split the worker lacks or a dead
// *peer* of the executor: no — punishing a healthy worker for someone
// else's loss is exactly what the classification exists to prevent).
type transientError struct {
	err   error
	blame bool
}

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }

// Transient marks err as retryable. blamePeer feeds the executing peer's
// breaker when true.
func Transient(err error, blamePeer bool) error {
	return transientError{err: err, blame: blamePeer}
}

// Class is the retry classification of one failure.
type Class int

// Classification outcomes.
const (
	// Permanent failures surface immediately (deterministic task errors,
	// client-side protocol errors).
	Permanent Class = iota
	// TransientBlamed failures retry and count against the executing
	// peer's breaker.
	TransientBlamed
	// TransientBlameless failures retry without suspecting the executor.
	TransientBlameless
	// CallerAbort failures stop the operation without retry or blame.
	CallerAbort
)

// Classify maps an operation error to its retry class. ctx is the
// *caller's* context (the job's, not the per-attempt one): when it has
// been cancelled or deadlined, any in-flight failure — including a
// context error surfacing through the transport — is the caller's own
// abort, regardless of how the error is marked. Without a caller abort,
// the Transient mark decides; bare context errors from a
// per-attempt deadline count as blamed transients (a hung peer looks
// exactly like a slow network, and both warrant suspicion).
func Classify(ctx context.Context, err error) Class {
	if err == nil {
		return Permanent
	}
	if ctx != nil && ctx.Err() != nil {
		return CallerAbort
	}
	var tr transientError
	if errors.As(err, &tr) {
		if tr.blame {
			return TransientBlamed
		}
		return TransientBlameless
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		// No caller abort (checked above), so this deadline belongs to a
		// per-attempt timeout: the attempt hung.
		return TransientBlamed
	}
	return Permanent
}

// exhaustedError carries the ErrExhausted sentinel over the last
// underlying failure, which is nil when an elapsed budget ran out.
type exhaustedError struct {
	msg string
	err error
}

func (e *exhaustedError) Error() string {
	if e.err == nil {
		return "retry: " + e.msg
	}
	return "retry: " + e.msg + ": " + e.err.Error()
}
func (e *exhaustedError) Unwrap() error        { return e.err }
func (e *exhaustedError) Is(target error) bool { return target == ErrExhausted }

// Exhausted wraps err, the last failure or nil, with the ErrExhausted
// sentinel. The mrdist wave loop, the one attempt loop, surfaces a spent
// attempt or elapsed budget through it.
func Exhausted(msg string, err error) error {
	return &exhaustedError{msg: msg, err: err}
}
