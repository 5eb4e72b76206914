package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/vec"
)

// randomQueries draws n probe points spanning the model's center range.
func randomQueries(n, dim int, seed int64) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]vec.Vector, n)
	for i := range out {
		p := make(vec.Vector, dim)
		for j := range p {
			p[j] = rng.Float64()*140 - 20
		}
		out[i] = p
	}
	return out
}

// encodeGMPB renders queries as a GMPB request body.
func encodeGMPB(points []vec.Vector, dim int) []byte {
	body := dfs.BinaryHeader(dim)
	for _, p := range points {
		body = dfs.AppendBinaryPoint(body, p)
	}
	return body
}

// decodeGMAB parses a GMAB response body into assignments. It returns
// errors rather than failing t so soak goroutines may call it too.
func decodeGMAB(body []byte) (int, []Assignment, error) {
	k, err := ParseAssignHeader(body)
	if err != nil {
		return 0, nil, err
	}
	frames := body[AssignHeaderLen:]
	if len(frames)%AssignFrameLen != 0 {
		return 0, nil, fmt.Errorf("GMAB body of %d frame bytes is not frame-aligned", len(frames))
	}
	out := make([]Assignment, len(frames)/AssignFrameLen)
	for i := range out {
		out[i] = DecodeAssignFrame(frames[i*AssignFrameLen:])
	}
	return k, out, nil
}

// TestServePathEquivalence pins the two assign routines — the columnar
// batch kernel and the scalar singleton scan — bit-identical to the
// scalar reference (same cluster index, same distance bits) through every
// entry point: programmatic and HTTP, singleton and batch, JSON and
// binary framing. The (k, dim) grid covers the default serving shape,
// low-dim models with many centers, and high-dim models with few centers.
func TestServePathEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		k, dim int
	}{
		{"columnar-batch", 32, 16},    // the serving benchmark's model
		{"lowdim-batch", 200, 2},      // low dim, many centers
		{"highdim-batch", 4, 32},      // high dim, few centers
		{"lowdim-batch-k140", 140, 2}, // low dim, many centers, a second model
		{"highdim-batch-d16", 4, 16},  // high dim, few centers, at d = 16
		{"tiny", 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := randomModel(t, tc.k, tc.dim, int64(tc.k))
			queries := randomQueries(257, tc.dim, 7) // odd count: SIMD tail
			// Reference: the scalar kernel, point by point.
			want := make([]Assignment, len(queries))
			for i, q := range queries {
				wi, wd := vec.NearestIndex(q, m.Centers)
				want[i] = Assignment{Cluster: wi, Distance: math.Sqrt(wd)}
			}

			s := newServer(t, m, Options{})

			// Programmatic singleton path.
			for i, q := range queries {
				got, err := s.Assign(q)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[i] {
					t.Fatalf("Assign(%d) = %+v, want %+v", i, got, want[i])
				}
			}
			// Programmatic batch path (columnar kernel).
			batch, err := s.AssignBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				if batch[i] != want[i] {
					t.Fatalf("AssignBatch[%d] = %+v, want %+v", i, batch[i], want[i])
				}
			}
			// HTTP JSON batch.
			body, _ := json.Marshal(batchRequest{Points: queries})
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/assign/batch", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("JSON batch status %d: %s", rec.Code, rec.Body)
			}
			var jr batchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
				t.Fatal(err)
			}
			for i := range jr.Assignments {
				if jr.Assignments[i] != want[i] {
					t.Fatalf("JSON batch[%d] = %+v, want %+v", i, jr.Assignments[i], want[i])
				}
			}
			// HTTP binary batch.
			rec = httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/assign/batch",
				bytes.NewReader(encodeGMPB(queries, tc.dim))))
			if rec.Code != http.StatusOK {
				t.Fatalf("binary batch status %d: %s", rec.Code, rec.Body)
			}
			gotK, bin, err := decodeGMAB(rec.Body.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if gotK != tc.k || len(bin) != len(queries) {
				t.Fatalf("binary batch k=%d n=%d, want k=%d n=%d",
					gotK, len(bin), tc.k, len(queries))
			}
			for i := range bin {
				if bin[i] != want[i] {
					t.Fatalf("binary batch[%d] = %+v, want %+v", i, bin[i], want[i])
				}
			}
			// HTTP singletons, JSON and binary, concurrently.
			var wg sync.WaitGroup
			errs := make(chan error, 2*len(queries))
			for i, q := range queries {
				wg.Add(1)
				go func(i int, q vec.Vector) {
					defer wg.Done()
					jb, _ := json.Marshal(assignRequest{Point: q})
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/assign", bytes.NewReader(jb)))
					if rec.Code != http.StatusOK {
						errs <- fmt.Errorf("JSON single %d: status %d: %s", i, rec.Code, rec.Body)
						return
					}
					var ar assignResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
						errs <- err
						return
					}
					if ar.Cluster != want[i].Cluster || ar.Distance != want[i].Distance {
						errs <- fmt.Errorf("JSON single %d = (%d, %v), want %+v", i, ar.Cluster, ar.Distance, want[i])
					}
				}(i, q)
				wg.Add(1)
				go func(i int, q vec.Vector) {
					defer wg.Done()
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/assign",
						bytes.NewReader(encodeGMPB([]vec.Vector{q}, tc.dim))))
					if rec.Code != http.StatusOK {
						errs <- fmt.Errorf("binary single %d: status %d: %s", i, rec.Code, rec.Body)
						return
					}
					_, asgs, err := decodeGMAB(rec.Body.Bytes())
					if err != nil {
						errs <- err
						return
					}
					if len(asgs) != 1 || asgs[0] != want[i] {
						errs <- fmt.Errorf("binary single %d = %+v, want %+v", i, asgs, want[i])
					}
				}(i, q)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestAssignValidationRegressions covers every malformed-input shape on
// both assign endpoints, asserting the typed error code alongside the
// status: malformed JSON, empty batches, zero-dim points, ragged
// dimensions, NaN coordinates, and their binary analogues.
func TestAssignValidationRegressions(t *testing.T) {
	s := newServer(t, gridModel(t, 16, 0), Options{}) // dim 2
	cases := []struct {
		name       string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"single malformed json", "/v1/assign", `{"point":`, 400, CodeBadBody},
		{"single trailing garbage", "/v1/assign", `{"point":[1,2]} extra`, 400, CodeBadBody},
		{"single unknown field", "/v1/assign", `{"pt":[1,2]}`, 400, CodeBadBody},
		{"single missing point", "/v1/assign", `{}`, 400, CodeEmptyPoint},
		{"single zero-dim point", "/v1/assign", `{"point":[]}`, 400, CodeEmptyPoint},
		{"single ragged", "/v1/assign", `{"point":[1,2,3]}`, 400, CodeDimMismatch},
		{"single nan", "/v1/assign", `{"point":[NaN,2]}`, 400, CodeBadBody}, // JSON has no NaN literal
		{"single overflow", "/v1/assign", `{"point":[1e308,1e308]}`, 400, CodeNumericRange},
		{"batch malformed json", "/v1/assign/batch", `{"points":[[1,2],`, 400, CodeBadBody},
		{"batch missing points", "/v1/assign/batch", `{}`, 400, CodeEmptyBatch},
		{"batch empty points", "/v1/assign/batch", `{"points":[]}`, 400, CodeEmptyBatch},
		{"batch zero-dim point", "/v1/assign/batch", `{"points":[[1,2],[]]}`, 400, CodeEmptyPoint},
		{"batch ragged", "/v1/assign/batch", `{"points":[[1,2],[3]]}`, 400, CodeDimMismatch},
		{"batch overflow point", "/v1/assign/batch", `{"points":[[1,0],[1e308,1e308]]}`, 400, CodeNumericRange},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, resp := doJSON(t, s, "POST", tc.path, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body)
			}
			if resp["code"] != tc.wantCode {
				t.Fatalf("code %q, want %q (body %s)", resp["code"], tc.wantCode, rec.Body)
			}
			if resp["error"] == "" {
				t.Fatal("typed error without message")
			}
		})
	}

	// NaN smuggled through binary framing (JSON cannot express it): the
	// kernel reports it, and the handler types it.
	nanBody := encodeGMPB([]vec.Vector{{1, 0}, {math.NaN(), 0}}, 2)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/assign/batch", bytes.NewReader(nanBody)))
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), CodeNumericRange) {
		t.Fatalf("binary NaN batch: status %d body %s", rec.Code, rec.Body)
	}
}
