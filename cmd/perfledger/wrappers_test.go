package main

import (
	"net/http"
	"os"
	"testing"

	"gmeansmr"
	"gmeansmr/internal/core"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/mrdist"
)

// TestMain lets the proc backend re-execute the test binary as a worker.
func TestMain(m *testing.M) {
	mrdist.MaybeWorker()
	os.Exit(m.Run())
}

func stagedEnv(t *testing.T) kmeansmr.Env {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{K: 3, Dim: 2, N: 3000, MinSeparation: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(4 << 10)
	ds.WriteToDFS(fs, "/in")
	return kmeansmr.Env{FS: fs, Cluster: mr.DefaultCluster().WithNodes(2), Input: "/in", Dim: 2}
}

func gmeansDigest(t *testing.T, env kmeansmr.Env) string {
	t.Helper()
	res, err := core.Run(core.Config{Env: env, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counters := res.Counters.Snapshot()
	counters[gmeansmr.CounterDatasetReads] = env.FS.DatasetReads()
	return resultDigest(res.Centers, counters)
}

func TestTimingWrappersKeepRunBitIdentical(t *testing.T) {
	want := gmeansDigest(t, stagedEnv(t))

	env := stagedEnv(t)
	local := &timingRunner{inner: mr.LocalRunner{}}
	env.Runner = local
	if got := gmeansDigest(t, env); got != want {
		t.Errorf("timing runner over the local backend: digest %s, want %s", got, want)
	}
	if len(local.jobs) == 0 {
		t.Fatal("timing runner saw no jobs")
	}
	for i, j := range local.jobs {
		if j.name == "" || j.counters == nil || j.mapStart.Before(j.start) || j.reduceEnd.Before(j.reduceStart) || j.reduceStart.Before(j.mapEnd) {
			t.Errorf("job %d timed out of order or without counters: %+v", i, j)
		}
	}

	env = stagedEnv(t)
	tt := &timingTransport{inner: http.DefaultTransport, stats: map[string]*rpcStat{}}
	proc := mrdist.NewProcRunner(mrdist.Options{Transport: tt, LogDir: t.TempDir()})
	defer proc.Close()
	remote := &timingRunner{inner: proc}
	tt.runner = remote
	env.Runner = remote
	if got := gmeansDigest(t, env); got != want {
		t.Errorf("timing runner and transport over the proc backend: digest %s, want %s", got, want)
	}
	if s := tt.stats["task"]; s == nil || s.n == 0 || s.reqBytes == 0 || s.respBytes == 0 {
		t.Errorf("timing transport counted no task RPCs: %+v", s)
	}
	if s := tt.stats["push"]; s == nil || s.reqBytes == 0 {
		t.Errorf("timing transport counted no replica push: %+v", s)
	}
}
