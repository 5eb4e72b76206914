package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gmeansmr/internal/vec"
)

// BenchmarkAssignBatchColumnar is the acceptance benchmark of the
// columnar serving refactor: one 1024-point batch at the README's
// reference shape (d=16, k=32), answered per point through the scalar
// scan versus once through the fused columnar kernel. The two paths are
// equality-gated before timing — the speedup must not buy any change in
// answers. Watched by cmd/benchdiff in CI; each op averages benchReps
// kernel passes so the single-shot CI run resists scheduling outliers.
func BenchmarkAssignBatchColumnar(b *testing.B) {
	const dim, k, batch = 16, 32, 1024
	const benchReps = 4
	m := randomModel(b, k, dim, 71)
	s := newServer(b, m, Options{})
	points := randomQueries(batch, dim, 73)

	// Equality gate.
	want, err := s.AssignBatch(points)
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range points {
		got, err := s.Assign(p)
		if err != nil {
			b.Fatal(err)
		}
		if got != want[i] {
			b.Fatalf("columnar batch and per-point scan disagree at %d: %+v vs %+v", i, want[i], got)
		}
	}

	// The baseline reproduces the pre-columnar batch loop verbatim: one
	// scalar NearestIndex per point over the model's row-major centers.
	b.Run("per-point", func(b *testing.B) {
		b.ReportAllocs()
		out := make([]Assignment, len(points))
		for i := 0; i < b.N; i++ {
			for r := 0; r < benchReps; r++ {
				for j, p := range points {
					wi, wd := vec.NearestIndex(p, m.Centers)
					out[j] = Assignment{Cluster: wi, Distance: math.Sqrt(wd)}
				}
			}
		}
		b.ReportMetric(batch, "points")
	})
	b.Run("columnar-kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < benchReps; r++ {
				if _, err := s.AssignBatch(points); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(batch, "points")
	})
}

// BenchmarkAssignConcurrent times a burst of 64 concurrent singleton
// Assign calls: one op starts the 64 goroutines and waits for all of
// them, so ns/op is the burst's wall time on the scalar singleton path.
func BenchmarkAssignConcurrent(b *testing.B) {
	const dim, k, burst = 16, 32, 64
	m := randomModel(b, k, dim, 71)
	queries := randomQueries(burst, dim, 79)
	s := newServer(b, m, Options{})

	b.Run("burst-64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for _, q := range queries {
				wg.Add(1)
				go func(q vec.Vector) {
					defer wg.Done()
					if _, err := s.Assign(q); err != nil {
						panic(err)
					}
				}(q)
			}
			wg.Wait()
		}
		b.ReportMetric(burst, "points")
	})
}

// BenchmarkHTTPAssign times the full HTTP handler stack — routing, body
// read, decode, kernel, encode — whose allocs/op records the effect of
// the pooled request/response buffers. Sub-benchmarks cover the JSON
// singleton, the JSON batch, and the binary batch framing.
func BenchmarkHTTPAssign(b *testing.B) {
	const dim, k, batch = 16, 32, 256
	m := randomModel(b, k, dim, 71)
	s := newServer(b, m, Options{})
	points := randomQueries(batch, dim, 83)

	single, _ := json.Marshal(assignRequest{Point: points[0]})
	jsonBatch, _ := json.Marshal(batchRequest{Points: points})
	binBatch := encodeGMPB(points, dim)

	post := func(b *testing.B, path string, body []byte) {
		b.Helper()
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}

	b.Run("json-single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, "/v1/assign", single)
		}
	})
	b.Run("json-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, "/v1/assign/batch", jsonBatch)
		}
		b.ReportMetric(batch, "points")
	})
	b.Run("binary-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, "/v1/assign/batch", binBatch)
		}
		b.ReportMetric(batch, "points")
	})
}
