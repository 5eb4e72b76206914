// Command stress drives the distributed backend through a chaos matrix:
// scripted fault scenarios (internal/faultinject) × MapReduce job kinds,
// asserting invariants rather than golden outputs. For every cell the
// run must either complete with results bit-identical to the local
// backend or fail with a typed error inside the retry policy's budget —
// never hang, never leak goroutines, and keep retry/breaker metrics
// within the policy's bounds.
//
// Usage:
//
//	stress                     # default matrix: all scenarios × test,pca
//	stress -kinds all          # add the multik kind
//	stress -scenarios kill,hang -kinds test
//	stress -seed 42 -v         # reproduce a failing schedule
//
// On failure the harness prints the scenario JSON and seed (and the
// worker-log directory when -logdir or $MRDIST_LOG_DIR is set), so a CI
// failure is reproducible locally with the same flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"gmeansmr/internal/core"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/faultinject"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/mrdist"
	"gmeansmr/internal/retry"
	"gmeansmr/internal/vec"
	"gmeansmr/internal/zoo"
)

func main() {
	// When the proc backend spawned this process as a worker, serve tasks
	// instead of running the matrix; never returns in that case.
	mrdist.MaybeWorker()
	log.SetFlags(0)
	log.SetPrefix("stress: ")

	var (
		kindsFlag     = flag.String("kinds", "test,pca", "job kinds to sweep: comma list of test,pca,multik, or all")
		scenariosFlag = flag.String("scenarios", "all", "fault scenarios to sweep: comma list (see -list), or all")
		list          = flag.Bool("list", false, "print the scenario and kind names and exit")
		seed          = flag.Int64("seed", 1, "seed for dataset, schedules and fault draws")
		nodes         = flag.Int("nodes", 3, "simulated cluster nodes (worker processes per cell)")
		points        = flag.Int("n", 2000, "dataset points")
		logDir        = flag.String("logdir", os.Getenv("MRDIST_LOG_DIR"), "worker-log directory (kept for reproduction)")
		verbose       = flag.Bool("v", false, "log per-cell metrics")
		zooMode       = flag.Bool("zoo", false, "run the adversarial-data zoo matrix and concurrency soaks instead of the chaos matrix")
		cellsFlag     = flag.String("cells", "all", "with -zoo: zoo cells to sweep (comma list, all, or none)")
		algosFlag     = flag.String("algos", "all", "with -zoo: algorithms to sweep (comma list or all)")
		soaksFlag     = flag.String("soaks", "all", "with -zoo: concurrency soaks to run (comma list of reload,cancel,fsrace, all, or none)")
	)
	flag.Parse()

	scenarios := scenarioSet(*seed)
	kinds := kindSet()
	if *list {
		for _, s := range scenarios {
			fmt.Println("scenario:", s.name)
		}
		for _, k := range kinds {
			fmt.Println("kind:", k.name)
		}
		for _, c := range zoo.Catalog() {
			fmt.Println("cell:", c.Name)
		}
		for _, a := range zooAlgos() {
			fmt.Println("algo:", a.name)
		}
		for _, s := range zooSoaks() {
			fmt.Println("soak:", s.name)
		}
		return
	}
	if *zooMode {
		runZoo(*cellsFlag, *algosFlag, *soaksFlag, *seed, *verbose)
		return
	}
	selScen, err := pick(scenarios, *scenariosFlag, func(s scenario) string { return s.name })
	if err != nil {
		log.Fatal(err)
	}
	selKinds, err := pick(kinds, *kindsFlag, func(k jobKind) string { return k.name })
	if err != nil {
		log.Fatal(err)
	}

	spec := dataset.Spec{K: 4, Dim: 3, N: *points, MinSeparation: 16, Seed: *seed}

	// One local-backend reference digest per kind: the equivalence target
	// every fault-scenario run must hit bit-for-bit.
	ref := make(map[string]string, len(selKinds))
	for _, k := range selKinds {
		digest, err := runKindLocal(k, spec, *nodes)
		if err != nil {
			log.Fatalf("local reference for %s failed: %v", k.name, err)
		}
		ref[k.name] = digest
	}

	failures := 0
	for _, sc := range selScen {
		for _, k := range selKinds {
			start := time.Now()
			cell := fmt.Sprintf("%s × %s", k.name, sc.name)
			if err := runCell(sc, k, spec, *nodes, *seed, *logDir, ref[k.name], *verbose); err != nil {
				failures++
				enc, _ := sc.master.Marshal()
				wenc, _ := sc.worker.Marshal()
				log.Printf("FAIL %s (%.1fs): %v", cell, time.Since(start).Seconds(), err)
				log.Printf("  reproduce: stress -scenarios %s -kinds %s -seed %d", sc.name, k.name, *seed)
				log.Printf("  master scenario: %s", enc)
				log.Printf("  worker scenario: %s", wenc)
				if *logDir != "" {
					log.Printf("  worker logs under: %s", *logDir)
				}
				continue
			}
			fmt.Printf("PASS %s (%.1fs)\n", cell, time.Since(start).Seconds())
		}
	}
	if failures > 0 {
		log.Fatalf("%d of %d cells failed", failures, len(selScen)*len(selKinds))
	}
	fmt.Printf("all %d cells passed\n", len(selScen)*len(selKinds))
}

// pick filters items by a comma list of names ("all" selects everything).
func pick[T any](items []T, sel string, name func(T) string) ([]T, error) {
	if sel == "" || sel == "all" {
		return items, nil
	}
	byName := make(map[string]T, len(items))
	for _, it := range items {
		byName[name(it)] = it
	}
	var out []T
	for _, want := range strings.Split(sel, ",") {
		it, ok := byName[strings.TrimSpace(want)]
		if !ok {
			return nil, fmt.Errorf("unknown name %q", want)
		}
		out = append(out, it)
	}
	return out, nil
}

// ---- scenarios ---------------------------------------------------------

// scenario is one chaos cell's fault script: master-side rules ride the
// runner's HTTP transport, worker-side rules travel by environment to
// worker index 1 (so the fleet is asymmetric, as real failures are).
type scenario struct {
	name   string
	master faultinject.Scenario
	worker faultinject.Scenario
	// expectRetries: a successful run must have retried at least once
	// (the faults cannot have been absorbed for free).
	expectRetries bool
	// expectError: the run must fail (with a typed error); its digest is
	// not checked.
	expectError bool
	// expectDeaths: a successful run must have lost (and recovered from)
	// at least one worker.
	expectDeaths bool
}

func scenarioSet(seed int64) []scenario {
	return []scenario{
		{name: "none"},
		{
			name: "refuse",
			master: faultinject.Scenario{
				Name: "refuse", Seed: seed,
				Rules: []faultinject.Rule{{Match: "/v1/task", Kind: faultinject.KindRefuse, Count: 2}},
			},
			expectRetries: true,
		},
		{
			name: "latency",
			master: faultinject.Scenario{
				Name: "latency", Seed: seed,
				Rules: []faultinject.Rule{{Kind: faultinject.KindLatency, Prob: 0.3, Latency: 30}},
			},
		},
		{
			name: "truncate",
			master: faultinject.Scenario{
				Name: "truncate", Seed: seed,
				Rules: []faultinject.Rule{{Match: "/v1/task", Kind: faultinject.KindTruncate, Count: 2}},
			},
			expectRetries: true,
		},
		{
			name: "corrupt",
			worker: faultinject.Scenario{
				Name: "corrupt", Seed: seed,
				Rules: []faultinject.Rule{{Match: "/v1/task", Kind: faultinject.KindCorrupt, Count: 2}},
			},
			expectRetries: true,
		},
		{
			name: "http500-burst",
			worker: faultinject.Scenario{
				Name: "http500-burst", Seed: seed,
				Rules: []faultinject.Rule{{Match: "/v1/task", Kind: faultinject.KindHTTP500, Count: 3}},
			},
			expectRetries: true,
		},
		{
			// Pings to worker 1 hang while its tasks still answer (slowly,
			// so the job outlives the miss window): the heartbeat must
			// declare it dead mid-run and the wave must recover its map
			// outputs from replicas.
			name: "heartbeat-blackout",
			worker: faultinject.Scenario{
				Name: "heartbeat-blackout", Seed: seed,
				Rules: []faultinject.Rule{
					{Match: "/v1/ping", Kind: faultinject.KindHang, Count: 50, Latency: 1000},
					{Match: "/v1/task", Kind: faultinject.KindLatency, Latency: 50},
				},
			},
			expectDeaths: true,
		},
		{
			name: "hang",
			worker: faultinject.Scenario{
				Name: "hang", Seed: seed,
				Rules: []faultinject.Rule{{Match: "/v1/task/map", Kind: faultinject.KindHang, Count: 2, Latency: 1000}},
			},
			expectRetries: true,
		},
		{
			name: "kill",
			worker: faultinject.Scenario{
				Name: "kill", Seed: seed,
				Rules: []faultinject.Rule{{Match: "/v1/task", Kind: faultinject.KindKill, Skip: 1, Count: 1}},
			},
		},
		{
			// Every master-side request refused, forever: the typed-error
			// path. Either the retry budget exhausts or the heartbeat
			// declares the (unreachable) fleet dead — both are bounded.
			name: "blackhole",
			master: faultinject.Scenario{
				Name: "blackhole", Seed: seed,
				Rules: []faultinject.Rule{{Kind: faultinject.KindRefuse}},
			},
			expectError: true,
		},
	}
}

// ---- job kinds ---------------------------------------------------------

// jobKind runs one MapReduce workload to a digest that must be
// bit-identical across backends.
type jobKind struct {
	name string
	// points, when positive, replaces the -n dataset size for this kind.
	points int
	run    func(env kmeansmr.Env, fs *dfs.FS) (string, error)
}

// data returns the dataset spec kind k runs on.
func (k jobKind) data(spec dataset.Spec) dataset.Spec {
	if k.points > 0 {
		spec.N = k.points
	}
	return spec
}

func kindSet() []jobKind {
	gmeans := func(cfg core.Config) func(kmeansmr.Env, *dfs.FS) (string, error) {
		return func(env kmeansmr.Env, fs *dfs.FS) (string, error) {
			cfg.Env = env
			res, err := core.Run(cfg)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "k=%d pre=%d iters=%d\n", res.K, res.KBeforeMerge, res.Iterations)
			writeCenters(&b, res.Centers)
			writeCounters(&b, res.Counters.Snapshot())
			fmt.Fprintf(&b, "reads=%d\n", fs.DatasetReads())
			return b.String(), nil
		}
	}
	return []jobKind{
		// Every one of the 4 clusters is larger than the normality test's
		// 4,096-projection sample, so the test job samples in every round.
		{name: "test", points: 24_000, run: gmeans(core.Config{Seed: 7})},
		{name: "pca", run: gmeans(core.Config{Seed: 7})},
		{name: "multik", run: func(env kmeansmr.Env, fs *dfs.FS) (string, error) {
			cfg := kmeansmr.MultiConfig{Env: env, KMin: 1, KMax: 4, Iterations: 3, Seed: 5}
			res, err := kmeansmr.RunMulti(cfg)
			if err != nil {
				return "", err
			}
			if err := kmeansmr.Evaluate(cfg, res); err != nil {
				return "", err
			}
			var b strings.Builder
			ks := make([]int, 0, len(res.CentersByK))
			for k := range res.CentersByK {
				ks = append(ks, k)
			}
			sort.Ints(ks)
			for _, k := range ks {
				fmt.Fprintf(&b, "k=%d wcss=%x\n", k, math.Float64bits(res.WCSSByK[k]))
				writeCenters(&b, res.CentersByK[k])
			}
			writeCounters(&b, res.Counters.Snapshot())
			fmt.Fprintf(&b, "reads=%d\n", fs.DatasetReads())
			return b.String(), nil
		}},
	}
}

func writeCenters(b *strings.Builder, centers []vec.Vector) {
	for _, c := range centers {
		for _, v := range c {
			b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
}

func writeCounters(b *strings.Builder, snap map[string]int64) {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s=%d\n", k, snap[k])
	}
}

// stageEnv writes a fresh DFS per run so neither backend sees the
// other's read accounting.
func stageEnv(spec dataset.Spec, nodes int, runner mr.TaskRunner) (kmeansmr.Env, *dfs.FS, error) {
	ds, err := dataset.Generate(spec)
	if err != nil {
		return kmeansmr.Env{}, nil, err
	}
	fs := dfs.New(16 << 10)
	ds.WriteToDFS(fs, "/data/points.txt")
	cluster := mr.Cluster{
		Nodes:              nodes,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 2,
		TaskHeapBytes:      64 << 20,
		MaxHeapUsage:       0.66,
	}
	return kmeansmr.Env{
		FS:      fs,
		Cluster: cluster,
		Input:   "/data/points.txt",
		Dim:     spec.Dim,
		Runner:  runner,
	}, fs, nil
}

func runKindLocal(k jobKind, spec dataset.Spec, nodes int) (string, error) {
	env, fs, err := stageEnv(k.data(spec), nodes, nil)
	if err != nil {
		return "", err
	}
	return k.run(env, fs)
}

// ---- the chaos cell ----------------------------------------------------

// stressPolicy is the retry policy under test: small backoffs so the
// matrix stays fast, a short per-try deadline so hangs cost one attempt,
// and a one-minute elapsed budget bounding every cell.
func stressPolicy() retry.Policy {
	return retry.Policy{
		MaxAttempts:      4,
		PerTryTimeout:    2 * time.Second,
		BaseBackoff:      10 * time.Millisecond,
		MaxBackoff:       200 * time.Millisecond,
		MaxElapsed:       time.Minute,
		BreakerThreshold: 3,
		BreakerCooldown:  300 * time.Millisecond,
	}
}

func runCell(sc scenario, k jobKind, spec dataset.Spec, nodes int, seed int64, logDir, want string, verbose bool) error {
	baseline := runtime.NumGoroutine()
	pol := stressPolicy()

	masterInj := faultinject.New(sc.master)
	var workerEnv func(int) []string
	if len(sc.worker.Rules) > 0 {
		enc, err := sc.worker.Marshal()
		if err != nil {
			return err
		}
		workerEnv = func(i int) []string {
			if i == 1 { // one faulty node; the fleet stays asymmetric
				return []string{faultinject.EnvScenario + "=" + enc}
			}
			return nil
		}
	}
	runner := mrdist.NewProcRunner(mrdist.Options{
		Retry:             pol,
		Seed:              seed,
		Transport:         masterInj.Transport(nil),
		WorkerEnv:         workerEnv,
		LogDir:            logDir,
		HeartbeatInterval: 100 * time.Millisecond,
		SpeculateAfter:    2 * time.Second,
	})

	// The hang watchdog: a cell must resolve inside the policy's elapsed
	// budget (per wave) plus slack for healthy work — never block the
	// whole matrix.
	type outcome struct {
		digest string
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		env, fs, err := stageEnv(k.data(spec), nodes, runner)
		if err != nil {
			done <- outcome{err: err}
			return
		}
		digest, err := k.run(env, fs)
		done <- outcome{digest: digest, err: err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(3*pol.MaxElapsed + 30*time.Second):
		runner.Close()
		return fmt.Errorf("HANG: cell did not resolve within the policy budget")
	}

	reg := runner.Registry()
	dispatched := reg.Counter(mrdist.MetricTasksDispatched).Value()
	completed := reg.Counter(mrdist.MetricTasksCompleted).Value()
	retries := reg.Counter(mrdist.MetricTaskRetries).Value()
	exhausted := reg.Counter(mrdist.MetricRetryExhausted).Value()
	deaths := reg.Counter(mrdist.MetricWorkerDeaths).Value()
	opens := reg.Counter(mrdist.MetricBreakerOpens).Value()
	runner.Close()

	if verbose {
		log.Printf("  %s × %s: dispatched=%d completed=%d retries=%d exhausted=%d deaths=%d breaker-opens=%d master-injections=%d err=%v",
			k.name, sc.name, dispatched, completed, retries, exhausted, deaths, opens, masterInj.Injections(), out.err)
	}

	// Invariant 1: completion is bit-identical, or the error is typed.
	switch {
	case sc.expectError && out.err == nil:
		return fmt.Errorf("expected a typed error, run succeeded")
	case out.err != nil && !typedError(out.err):
		return fmt.Errorf("untyped error escaped the policy layer: %v", out.err)
	case out.err == nil && out.digest != want:
		return fmt.Errorf("result diverged from the local backend:\nproc:\n%s\nlocal:\n%s", out.digest, want)
	}

	// Invariant 2: retry accounting stays inside the policy's bounds.
	if completed > dispatched {
		return fmt.Errorf("completed %d > dispatched %d", completed, dispatched)
	}
	if maxRetries := int64(pol.MaxAttempts-1) * dispatched; retries > maxRetries {
		return fmt.Errorf("retries %d exceed the policy bound %d", retries, maxRetries)
	}
	if sc.name == "none" && (retries != 0 || deaths != 0 || exhausted != 0) {
		return fmt.Errorf("fault-free run recorded retries=%d deaths=%d exhausted=%d", retries, deaths, exhausted)
	}
	if sc.expectRetries && out.err == nil && retries == 0 {
		return fmt.Errorf("faults injected but no retry recorded")
	}
	if sc.expectDeaths && out.err == nil && deaths == 0 {
		return fmt.Errorf("blackout injected but no worker death recorded")
	}
	if out.err == nil && exhausted != 0 {
		return fmt.Errorf("successful run recorded %d exhausted budgets", exhausted)
	}

	// Invariant 3: no goroutine outlives the cell.
	return checkGoroutines(baseline)
}

// typedError reports whether err is one of the failure types the policy
// layer is allowed to surface: a spent retry budget, an unavailable
// backend, a caller abort (the job context's own error), or a
// deterministic task error.
func typedError(err error) bool {
	var te *mr.TaskError
	return errors.Is(err, retry.ErrExhausted) ||
		errors.Is(err, mrdist.ErrBackendUnavailable) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.As(err, &te)
}

// checkGoroutines waits for the fleet's goroutines to drain back to the
// cell's baseline (mirroring the facade's cancellation leak checks) and
// dumps stacks when they do not.
func checkGoroutines(baseline int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			return fmt.Errorf("goroutine leak: %d now vs %d at cell start\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
