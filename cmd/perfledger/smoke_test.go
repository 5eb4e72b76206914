package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gmeansmr"
)

// tinyWorkloads are the benchmark's four workloads at a size that runs in
// seconds.
func tinyWorkloads() []workload {
	return []workload{
		{Name: "gmeans-local", Train: &trainSpec{N: 4000, K: 4, Dim: 4, Datasets: 2, Backend: gmeansmr.BackendLocal}},
		{Name: "gmeans-proc", Train: &trainSpec{N: 4000, K: 4, Dim: 4, Datasets: 2, Backend: gmeansmr.BackendProc}},
		{Name: "multik", Train: &trainSpec{N: 2000, K: 4, Dim: 4, Datasets: 2, Backend: gmeansmr.BackendLocal,
			MultiK: true, KMax: 8, Iterations: 2}},
		{Name: "serve", Serve: &serveSpec{K: 4, Dim: 4, SingleRate: 200, BatchRate: 20, BatchSize: 64,
			SwapEvery: 50 * time.Millisecond, SetupBatch: 10, DirectReps: 50}},
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second, twice")
	}
	for _, trace := range []bool{false, true} {
		for _, w := range tinyWorkloads() {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				dir := t.TempDir()
				t.Setenv("MRDIST_LOG_DIR", filepath.Join(dir, "logs"))
				opts := runOpts{Seed: 1, Seconds: 1, Trace: trace}
				if err := prepareInputs(w, opts, dir); err != nil {
					t.Fatal(err)
				}
				var cal calibration
				res := runChild(w, opts, dir, cal.pause)
				res.Calibration = cal.samples
				wr := evaluate(w, opts, dir, res)
				if !wr.Correct || wr.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", wr.Correct, wr.Attempted, wr.Failed, wr.Checks)
				}
				if calibrated := len(cal.samples) > 0; calibrated == trace {
					t.Errorf("%d calibrations: an untraced run pauses to calibrate, a traced one does not", len(cal.samples))
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(wr.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(wr.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := wr.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s in %q, want %q", d.Name, m.Unit, d.Unit)
					case !trace && !(m.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want a positive measurement", d.Name, m.Value)
					}
				}
				if trace {
					checkLayers(t, w, wr.Metrics)
				}
			})
		}
	}
}

// checkLayers spot-checks that a traced run measured the layers its
// workload exercises, and left the others at zero.
func checkLayers(t *testing.T, w workload, m map[string]metricValue) {
	t.Helper()
	positive := []string{"trace.spans"}
	zero := []string{}
	switch {
	case w.Serve != nil:
		positive = append(positive, "serve.assign_us", "serve.assign_batch_us", "vec.nearest_rows_us",
			"serve.requests", "serve.swaps", "model.load_ms", "serve.batch_p50_ms")
		zero = append(zero, "serve.failed", "serve.verify_mismatches", "mr.jobs", "stage.read_s")
	default:
		positive = append(positive, "stage.read_s", "dfs.decode_s", "dfs.splits", "mr.jobs", "mr.map_wave_s",
			"core.run_s", "core.distances", "vec.ns_per_dist", "trace.explained_ratio", "trace.overhead_ratio")
		zero = append(zero, "serve.requests")
		if w.Train.MultiK {
			positive = append(positive, "kmeansmr.multi_s", "kmeansmr.evaluate_s")
			zero = append(zero, "stats.ad_tests")
		} else {
			positive = append(positive, "core.rounds", "stats.ad_tests", "stats.us_per_test")
		}
		if w.Train.Backend == gmeansmr.BackendProc {
			positive = append(positive, "mrdist.task_rpcs", "mrdist.push_bytes", "mrdist.first_task_s", "mrdist.dispatch_efficiency")
		} else {
			zero = append(zero, "mrdist.task_rpcs", "mrdist.push_bytes", "mrdist.first_task_s", "mrdist.overhead_s")
		}
	}
	for _, name := range positive {
		if v := m[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	for _, name := range zero {
		if v := m[name].Value; v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
}

func TestResultLineHasExactlyFourKeys(t *testing.T) {
	rep := report{Workloads: []workloadReport{{
		Workload: "serve", Correct: true, Attempted: 3,
		Metrics: map[string]metricValue{"setup_s": {Value: 0.5, Unit: "s"}},
	}}}
	b, err := json.Marshal(rep.resultLine())
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(b, &line); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("key %s missing from %s", k, b)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line %s has %d keys, want 4", b, len(line))
	}
	if string(line["metrics"]) != `{"setup_s":{"value":0.5,"unit":"s"}}` {
		t.Errorf("metrics = %s", line["metrics"])
	}
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(doc.Command, doc.Paths) != "[bash cmd/perfledger/run.sh] [cmd/perfledger]" {
		t.Errorf("command %q over paths %q, want run.sh in cmd/perfledger", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the command %q", i, w.Name, workloads[i].Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, the command %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has bound %g, above setup_s's %g", d.Name, d.Bound, endToEnd[0].Bound)
		}
	}
}
