package mrdist_test

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gmeansmr/internal/mr"
	"gmeansmr/internal/mrdist"
	"gmeansmr/internal/obs"
	"gmeansmr/internal/retry"
)

// checkNoGoroutineLeak waits for the runner's goroutines (heartbeat,
// worker stdout/stderr scanners, backoff timers, idle HTTP connections)
// to drain back to the pre-runner baseline, mirroring the facade's
// cancellation leak checks.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestProcJobFreeNoGoroutineLeak runs a job to completion, frees it via
// Close, and checks every fleet goroutine exits.
func TestProcJobFreeNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	runner := mrdist.NewProcRunner(mrdist.Options{})
	fs, want := numbersFS(1000, 1<<10)
	res, err := sumJob(fs, testCluster(2, 2, 2), runner, sumPayload{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	checkSums(t, res, want)
	runner.Close()

	checkNoGoroutineLeak(t, before)
}

// TestProcWorkerDeathRecoveryNoGoroutineLeak kills a worker mid-wave —
// driving the heartbeat death path and map-output recovery — then checks
// the recovered run still drains every goroutine on Close.
func TestProcWorkerDeathRecoveryNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	runner := mrdist.NewProcRunner(mrdist.Options{})
	fs, want := numbersFS(1200, 1<<10)
	job := sumJob(fs, testCluster(3, 1, 1), runner, sumPayload{sleepMS: 100})

	type outcome struct {
		res *mr.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := job.Run()
		done <- outcome{res, err}
	}()

	// Kill the last worker once it plausibly holds completed map output.
	completed := runner.Registry().Counter(mrdist.MetricTasksCompleted)
	killDeadline := time.After(20 * time.Second)
	killed := false
poll:
	for !killed {
		select {
		case o := <-done:
			t.Fatalf("job finished before a worker could be killed (err=%v)", o.err)
		case <-killDeadline:
			break poll
		case <-time.After(5 * time.Millisecond):
			pids := runner.WorkerPIDs()
			if completed.Value() >= 1 && len(pids) == 3 {
				if err := syscall.Kill(pids[len(pids)-1], syscall.SIGKILL); err != nil {
					t.Fatalf("kill worker: %v", err)
				}
				killed = true
			}
		}
	}
	if !killed {
		t.Fatal("never reached a killable point in the map wave")
	}

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("job failed after worker death: %v", o.err)
		}
		checkSums(t, o.res, want)
	case <-time.After(60 * time.Second):
		t.Fatal("job did not complete after worker death")
	}
	runner.Close()

	checkNoGoroutineLeak(t, before)
}

// roundTripFunc adapts a function to http.RoundTripper, the master-side
// seam the tests below inject faults through.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// runWithin runs job and fails the test if it has not returned within d.
func runWithin(t *testing.T, job *mr.Job, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := job.Run()
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("job still running after %v", d)
		return nil
	}
}

// TestProcRecoveryHonoursElapsedBudget kills worker 0 at the first reduce
// request and then holds every map task and split push until its
// deadline, so the lost map outputs can never be rebuilt. Recovery runs
// as a wave under the policy's elapsed budget: the job must fail typed
// within seconds, however many attempts the policy would allow.
func TestProcRecoveryHonoursElapsedBudget(t *testing.T) {
	var (
		runner *mrdist.ProcRunner
		kill   sync.Once
		stall  atomic.Bool
	)
	transport := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		switch req.URL.Path {
		case "/v1/task/reduce":
			kill.Do(func() {
				syscall.Kill(runner.WorkerPIDs()[0], syscall.SIGKILL)
				stall.Store(true)
			})
		case "/v1/task/map", "/v1/fs/push":
			if stall.Load() {
				<-req.Context().Done()
				return nil, req.Context().Err()
			}
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	runner = mrdist.NewProcRunner(mrdist.Options{
		Transport: transport,
		Retry: retry.Policy{
			MaxAttempts:   1000,
			PerTryTimeout: 100 * time.Millisecond,
			BaseBackoff:   10 * time.Millisecond,
			MaxBackoff:    50 * time.Millisecond,
			MaxElapsed:    time.Second,
		},
	})
	defer runner.Close()

	fs, _ := numbersFS(1200, 1<<10)
	job := sumJob(fs, testCluster(3, 1, 1), runner, sumPayload{})
	job.Trace = obs.NewTrace()
	err := runWithin(t, job, 10*time.Second)
	if !errors.Is(err, retry.ErrExhausted) {
		t.Fatalf("err = %v, want retry.ErrExhausted", err)
	}
	if !stall.Load() {
		t.Fatal("the job never reached its reduce wave")
	}

	// Recovery spans carry the ids of the map tasks worker 0 ran.
	ranOn0 := make(map[int64]bool)
	recovered := 0
	for _, ev := range job.Trace.Events() {
		if ev.Name == "map-task" && ev.Args["worker"] == 0 {
			ranOn0[ev.TID] = true
		}
	}
	for _, ev := range job.Trace.Events() {
		if ev.Name == "map-recovery" {
			recovered++
			if !ranOn0[ev.TID] {
				t.Errorf("map-recovery span for task %d, which worker 0 did not run", ev.TID)
			}
		}
	}
	if recovered == 0 {
		t.Error("no map-recovery span recorded")
	}
}

// TestProcWaveExhaustsAttempts refuses every task RPC: each attempt is a
// blamed transient, so the wave spends its attempt budget and fails typed.
func TestProcWaveExhaustsAttempts(t *testing.T) {
	transport := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if strings.HasPrefix(req.URL.Path, "/v1/task/") {
			return nil, errors.New("task RPC refused")
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	runner := mrdist.NewProcRunner(mrdist.Options{
		Transport: transport,
		Retry: retry.Policy{
			MaxAttempts:     3,
			BaseBackoff:     time.Millisecond,
			MaxBackoff:      2 * time.Millisecond,
			BreakerCooldown: 10 * time.Millisecond,
		},
	})
	defer runner.Close()

	fs, _ := numbersFS(500, 1<<10)
	err := runWithin(t, sumJob(fs, testCluster(2, 1, 1), runner, sumPayload{}), 30*time.Second)
	if !errors.Is(err, retry.ErrExhausted) {
		t.Fatalf("err = %v, want retry.ErrExhausted", err)
	}
	if got := runner.Registry().Counter(mrdist.MetricRetryExhausted).Value(); got < 1 {
		t.Errorf("exhausted metric = %d, want >= 1", got)
	}
}

// TestProcWaveCallerAbort cancels the job context from inside the first
// map-task RPC: the wave stops without retry, surfaces the caller's own
// error rather than a spent budget, and blames no worker.
func TestProcWaveCallerAbort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	transport := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path == "/v1/task/map" {
			cancel()
			<-req.Context().Done()
			return nil, req.Context().Err()
		}
		return http.DefaultTransport.RoundTrip(req)
	})
	runner := mrdist.NewProcRunner(mrdist.Options{Transport: transport})
	defer runner.Close()

	fs, _ := numbersFS(500, 1<<10)
	job := sumJob(fs, testCluster(2, 1, 1), runner, sumPayload{})
	job.Ctx = ctx
	err := runWithin(t, job, 30*time.Second)
	if !errors.Is(err, context.Canceled) || errors.Is(err, retry.ErrExhausted) {
		t.Fatalf("err = %v, want context.Canceled and not retry.ErrExhausted", err)
	}
	reg := runner.Registry()
	if got := reg.Counter(mrdist.MetricBreakerOpens).Value(); got != 0 {
		t.Errorf("caller abort opened %d breakers", got)
	}
	if got := reg.Counter(mrdist.MetricRetryAborts).Value(); got < 1 {
		t.Errorf("aborts metric = %d, want >= 1", got)
	}
}
