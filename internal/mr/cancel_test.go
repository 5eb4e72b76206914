package mr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"gmeansmr/internal/dfs"
)

// waveGate counts task starts and, once every slot of the wave is busy,
// cancels the job from inside the task that filled the last slot. Tasks
// wait at the gate until then, so the cancellation is issued while the
// full wave is running and before any of it drains.
type waveGate struct {
	slots   int32
	cancel  context.CancelFunc
	started atomic.Int32
	full    chan struct{}
}

func newWaveGate(slots int, cancel context.CancelFunc) *waveGate {
	return &waveGate{slots: int32(slots), cancel: cancel, full: make(chan struct{})}
}

func (g *waveGate) enter() {
	if g.started.Add(1) == g.slots {
		g.cancel()
		close(g.full)
	}
	<-g.full
}

// gatedMapper passes through the gate (when set) and emits one pair per
// point, so every reduce partition receives input.
type gatedMapper struct{ gate *waveGate }

func (m gatedMapper) Setup(*TaskContext) error {
	if m.gate != nil {
		m.gate.enter()
	}
	return nil
}

func (gatedMapper) MapColumns(_ *TaskContext, cols *dfs.ColumnarSplit, emit Emitter) error {
	col := cols.Col(0)
	for _, x := range col {
		emit.Emit(int64(x), Int64Value(1))
	}
	return nil
}

func (gatedMapper) Close(*TaskContext, Emitter) error { return nil }

// gatedReducer passes through the gate (when set) at Setup.
type gatedReducer struct {
	gate    *waveGate
	started *atomic.Int32
}

func (r gatedReducer) Setup(*TaskContext) error {
	r.started.Add(1)
	if r.gate != nil {
		r.gate.enter()
	}
	return nil
}

func (gatedReducer) Reduce(_ *TaskContext, key int64, values []Value, emit Emitter) error {
	emit.Emit(key, Int64Value(len(values)))
	return nil
}

func (gatedReducer) Close(*TaskContext, Emitter) error { return nil }

// cancelJob builds a job over 40 one-dim points split into many map
// tasks, on a one-node cluster with the given slot counts.
func cancelJob(t *testing.T, ctx context.Context, mapSlots, reduceSlots int) *Job {
	t.Helper()
	fs := dfs.New(8)
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "%d\n", i)
	}
	fs.Create("/in", []byte(b.String()))
	splits, err := fs.Splits("/in")
	if err != nil || len(splits) <= 2*mapSlots {
		t.Fatalf("want more than %d splits, got %d (%v)", 2*mapSlots, len(splits), err)
	}
	return &Job{
		Name:        "cancel",
		FS:          fs,
		Cluster:     Cluster{Nodes: 1, MapSlotsPerNode: mapSlots, ReduceSlotsPerNode: reduceSlots},
		Input:       "/in",
		PointDim:    1,
		NumReducers: 4 * reduceSlots,
		Ctx:         ctx,
	}
}

// TestCancelFromMapTask cancels the job from inside its first map wave:
// the running tasks drain, no queued map task starts, the reduce wave
// never runs, and the job error wraps context.Canceled.
func TestCancelFromMapTask(t *testing.T) {
	for _, slots := range []int{1, 3} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			job := cancelJob(t, ctx, slots, 1)
			gate := newWaveGate(slots, cancel)
			var reduces atomic.Int32
			job.NewPointMapper = func() PointMapper { return gatedMapper{gate: gate} }
			job.NewReducer = func() Reducer { return gatedReducer{started: &reduces} }

			_, err := job.Run()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want one wrapping context.Canceled", err)
			}
			if got := gate.started.Load(); got != int32(slots) {
				t.Errorf("%d map tasks started, want only the %d running at cancel", got, slots)
			}
			if got := reduces.Load(); got != 0 {
				t.Errorf("%d reduce tasks ran after a cancelled map wave", got)
			}
		})
	}
}

// TestCancelFromReduceTask cancels the job from inside its reduce wave:
// the map wave completes, the running reducers drain, no queued reduce
// task starts, and the job error wraps context.Canceled.
func TestCancelFromReduceTask(t *testing.T) {
	for _, slots := range []int{1, 3} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			job := cancelJob(t, ctx, 2, slots)
			gate := newWaveGate(slots, cancel)
			var reduces atomic.Int32
			job.NewPointMapper = func() PointMapper { return gatedMapper{} }
			job.NewReducer = func() Reducer { return gatedReducer{gate: gate, started: &reduces} }

			_, err := job.Run()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want one wrapping context.Canceled", err)
			}
			if got := reduces.Load(); got != int32(slots) {
				t.Errorf("%d of %d reduce tasks started, want only the %d running at cancel",
					got, job.NumReducers, slots)
			}
		})
	}
}
