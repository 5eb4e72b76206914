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
	"sync/atomic"
	"testing"

	"gmeansmr/internal/model"
	"gmeansmr/internal/vec"
)

// gridModel builds k centers spaced along the x axis at the given y, so
// two models with different y values give every probe a distinct answer.
func gridModel(t testing.TB, k int, y float64) *model.Model {
	t.Helper()
	centers := make([]vec.Vector, k)
	for i := range centers {
		centers[i] = vec.Vector{float64(i) * 10, y}
	}
	m, err := model.New(centers, model.Meta{Algorithm: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomModel(t testing.TB, k, dim int, seed int64) *model.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	centers := make([]vec.Vector, k)
	for i := range centers {
		c := make(vec.Vector, dim)
		for j := range c {
			c[j] = rng.Float64() * 100
		}
		centers[i] = c
	}
	m, err := model.New(centers, model.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newServer(t testing.TB, m *model.Model, opts Options) *Server {
	t.Helper()
	s, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAssignMatchesBruteForce is the acceptance check for the direct
// singleton path: Assign must agree exactly with the reference scan,
// cluster id and distance both, across a grid of (k, dim) shapes.
func TestAssignMatchesBruteForce(t *testing.T) {
	for _, dim := range []int{2, 3, 6, 32} {
		for _, k := range []int{1, 3, 8, 16, 17, 50, 200} {
			m := randomModel(t, k, dim, int64(k*100+dim))
			s := newServer(t, m, Options{})
			rng := rand.New(rand.NewSource(99))
			for q := 0; q < 200; q++ {
				p := make(vec.Vector, dim)
				for j := range p {
					p[j] = rng.Float64()*140 - 20
				}
				got, err := s.Assign(p)
				if err != nil {
					t.Fatal(err)
				}
				wantIdx, wantD2 := vec.NearestIndex(p, m.Centers)
				if got.Cluster != wantIdx || got.Distance != math.Sqrt(wantD2) {
					t.Fatalf("k=%d dim=%d: Assign=%+v, brute force wants cluster %d distance %g",
						k, dim, got, wantIdx, math.Sqrt(wantD2))
				}
			}
		}
	}
}

// TestAssignNumericRange: NaN coordinates and magnitudes whose squared
// distance overflows to +Inf for every center must come back as errors
// (HTTP 400), never as cluster -1 or a handler panic.
func TestAssignNumericRange(t *testing.T) {
	s := newServer(t, gridModel(t, 16, 0), Options{})
	for _, p := range []vec.Vector{
		{1e308, 1e308},
		{math.NaN(), 0},
	} {
		if _, err := s.Assign(p); err == nil {
			t.Errorf("Assign(%v) returned no error", p)
		}
		if _, err := s.AssignBatch([]vec.Vector{{1, 0}, p}); err == nil {
			t.Errorf("AssignBatch with %v returned no error", p)
		}
	}
	rec, resp := doJSON(t, s, "POST", "/v1/assign", `{"point":[1e308,1e308]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("overflow point: status %d body %s", rec.Code, rec.Body.String())
	}
	if resp["error"] == "" {
		t.Fatal("overflow point: no error message")
	}
	rec, _ = doJSON(t, s, "POST", "/v1/assign/batch", `{"points":[[1,0],[1e308,1e308]]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("overflow point in batch: status %d body %s", rec.Code, rec.Body.String())
	}
}

func TestAssignDimensionMismatch(t *testing.T) {
	s := newServer(t, gridModel(t, 4, 0), Options{})
	if _, err := s.Assign(vec.Vector{1, 2, 3}); err == nil {
		t.Error("3-dim point accepted by 2-dim model")
	}
	if _, err := s.AssignBatch([]vec.Vector{{1, 2}, {1}}); err == nil {
		t.Error("ragged batch accepted")
	}
}

// --- HTTP layer -------------------------------------------------------------

func doJSON(t *testing.T, s *Server, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var decoded map[string]any
	if rec.Body.Len() > 0 {
		// ServeMux's own 404/405 responses are plain text; handler
		// responses must be JSON.
		if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil &&
			rec.Code != http.StatusNotFound && rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: non-JSON response %q", method, path, rec.Body.String())
		}
	}
	return rec, decoded
}

func TestHTTPHandlers(t *testing.T) {
	m := gridModel(t, 16, 0)
	tests := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		check      func(t *testing.T, resp map[string]any)
	}{
		{
			name: "assign ok", method: "POST", path: "/v1/assign",
			body: `{"point":[21,1]}`, wantStatus: 200,
			check: func(t *testing.T, resp map[string]any) {
				if resp["cluster"].(float64) != 2 {
					t.Errorf("cluster = %v, want 2", resp["cluster"])
				}
				if d := resp["distance"].(float64); math.Abs(d-math.Sqrt(2)) > 1e-12 {
					t.Errorf("distance = %v, want sqrt(2)", d)
				}
				center := resp["center"].([]any)
				if center[0].(float64) != 20 || center[1].(float64) != 0 {
					t.Errorf("center = %v, want [20 0]", center)
				}
			},
		},
		{name: "assign wrong method", method: "GET", path: "/v1/assign",
			body: "", wantStatus: 405},
		{name: "assign bad json", method: "POST", path: "/v1/assign",
			body: `{"point":`, wantStatus: 400},
		{name: "assign unknown field", method: "POST", path: "/v1/assign",
			body: `{"pt":[1,2]}`, wantStatus: 400},
		{name: "assign missing point", method: "POST", path: "/v1/assign",
			body: `{}`, wantStatus: 400},
		{name: "assign wrong dim", method: "POST", path: "/v1/assign",
			body: `{"point":[1,2,3]}`, wantStatus: 400},
		{
			name: "batch ok", method: "POST", path: "/v1/assign/batch",
			body: `{"points":[[1,0],[148,-1]]}`, wantStatus: 200,
			check: func(t *testing.T, resp map[string]any) {
				asgs := resp["assignments"].([]any)
				if len(asgs) != 2 {
					t.Fatalf("assignments = %v", asgs)
				}
				first := asgs[0].(map[string]any)
				last := asgs[1].(map[string]any)
				if first["cluster"].(float64) != 0 || last["cluster"].(float64) != 15 {
					t.Errorf("clusters = %v, %v; want 0, 15", first["cluster"], last["cluster"])
				}
				if resp["k"].(float64) != 16 {
					t.Errorf("k = %v", resp["k"])
				}
			},
		},
		{name: "batch empty", method: "POST", path: "/v1/assign/batch",
			body: `{"points":[]}`, wantStatus: 400},
		{name: "batch ragged", method: "POST", path: "/v1/assign/batch",
			body: `{"points":[[1,2],[3]]}`, wantStatus: 400},
		{
			name: "model metadata", method: "GET", path: "/v1/model",
			body: "", wantStatus: 200,
			check: func(t *testing.T, resp map[string]any) {
				if resp["k"].(float64) != 16 || resp["dim"].(float64) != 2 {
					t.Errorf("metadata = %v", resp)
				}
				if resp["meta"].(map[string]any)["algorithm"] != "test" {
					t.Errorf("meta = %v", resp["meta"])
				}
				if resp["generation"].(float64) != 1 {
					t.Errorf("generation = %v, want 1", resp["generation"])
				}
			},
		},
		{name: "reload without loader", method: "POST", path: "/v1/model/reload",
			body: "", wantStatus: 409},
		{
			name: "healthz", method: "GET", path: "/healthz",
			body: "", wantStatus: 200,
			check: func(t *testing.T, resp map[string]any) {
				if resp["status"] != "ok" {
					t.Errorf("health = %v", resp)
				}
			},
		},
		{name: "unknown route", method: "GET", path: "/v1/nope",
			body: "", wantStatus: 404},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t, m, Options{})
			rec, resp := doJSON(t, s, tc.method, tc.path, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if tc.wantStatus >= 400 && tc.wantStatus != 405 && resp["error"] == "" {
				t.Error("error response without error message")
			}
			if tc.check != nil {
				tc.check(t, resp)
			}
		})
	}
}

// TestHTTPBatchLimit pins the JSON batch-size boundary: DefaultMaxBatch
// points are answered, one more is refused with 413 and the typed
// too_large code. TestBinaryAssignRejectsMalformed pins the same
// boundary for GMPB bodies.
func TestHTTPBatchLimit(t *testing.T) {
	s := newServer(t, gridModel(t, 4, 0), Options{}) // dim 2
	points := randomQueries(DefaultMaxBatch+1, 2, 1)
	body, _ := json.Marshal(batchRequest{Points: points[:DefaultMaxBatch]})
	if rec, _ := postRaw(t, s, "/v1/assign/batch", body); rec.Code != http.StatusOK {
		t.Fatalf("batch of DefaultMaxBatch points: status %d, want 200", rec.Code)
	}
	body, _ = json.Marshal(batchRequest{Points: points})
	rec, resp := postRaw(t, s, "/v1/assign/batch", body)
	if rec.Code != http.StatusRequestEntityTooLarge || resp["code"] != CodeTooLarge {
		t.Fatalf("batch of DefaultMaxBatch+1 points: %d %s, want 413 %s", rec.Code, rec.Body, CodeTooLarge)
	}
}

func TestHTTPReload(t *testing.T) {
	next := gridModel(t, 9, 0)
	var fail atomic.Bool
	s := newServer(t, gridModel(t, 4, 0), Options{
		Loader: func() (*model.Model, error) {
			if fail.Load() {
				return nil, fmt.Errorf("snapshot store down")
			}
			return next, nil
		},
	})

	rec, resp := doJSON(t, s, "POST", "/v1/model/reload", "")
	if rec.Code != 200 {
		t.Fatalf("reload status %d: %s", rec.Code, rec.Body.String())
	}
	if resp["k"].(float64) != 9 || resp["generation"].(float64) != 2 {
		t.Fatalf("reload response %v", resp)
	}
	if s.Model().K != 9 || s.Generation() != 2 {
		t.Fatalf("model not swapped: k=%d gen=%d", s.Model().K, s.Generation())
	}

	fail.Store(true)
	rec, _ = doJSON(t, s, "POST", "/v1/model/reload", "")
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("failing loader status %d, want 502", rec.Code)
	}
	// A failed reload must leave the previous model serving.
	if s.Model().K != 9 || s.Generation() != 2 {
		t.Fatal("failed reload disturbed the active model")
	}
}

func TestSwapRejectsInvalidModel(t *testing.T) {
	s := newServer(t, gridModel(t, 4, 0), Options{})
	if err := s.Swap(&model.Model{K: 1, Dim: 1}); err == nil {
		t.Fatal("invalid model swapped in")
	}
	if s.Model().K != 4 {
		t.Fatal("rejected swap disturbed the active model")
	}
}

// TestHotSwapConsistency hammers the query path while another goroutine
// flips between two models. Every single answer — and every answer within
// one batch — must be exactly consistent with one of the two models; a torn
// read (cluster id from one model, center or distance from the other) would
// break that.
func TestHotSwapConsistency(t *testing.T) {
	const k = 16
	mA := gridModel(t, k, 0)   // centers (10i, 0)
	mB := gridModel(t, k, 100) // centers (10i, 100)
	s := newServer(t, mA, Options{})

	// Probes sit 1 away from an A-center and sqrt(1+99²) away from the
	// corresponding B-center; the cluster index is the same under both
	// models, so the distance identifies which model answered.
	probes := make([]vec.Vector, 64)
	wantA := make([]Assignment, len(probes))
	wantB := make([]Assignment, len(probes))
	for i := range probes {
		probes[i] = vec.Vector{float64(i%k)*10 + 1, 1}
		ia, da := vec.NearestIndex(probes[i], mA.Centers)
		ib, db := vec.NearestIndex(probes[i], mB.Centers)
		wantA[i] = Assignment{Cluster: ia, Distance: math.Sqrt(da)}
		wantB[i] = Assignment{Cluster: ib, Distance: math.Sqrt(db)}
	}

	stop := make(chan struct{})
	var swaps atomic.Int64
	var swapper, workers sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		models := [2]*model.Model{mB, mA}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Swap(models[i%2]); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			swaps.Add(1)
		}
	}()

	for g := 0; g < 8; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for iter := 0; iter < 400; iter++ {
				i := (g*31 + iter) % len(probes)
				got, err := s.Assign(probes[i])
				if err != nil {
					t.Errorf("assign: %v", err)
					return
				}
				if got != wantA[i] && got != wantB[i] {
					t.Errorf("probe %d: %+v matches neither model (A %+v, B %+v)",
						i, got, wantA[i], wantB[i])
					return
				}
				// Batches must be answered by ONE model snapshot end to end.
				batch, err := s.AssignBatch(probes)
				if err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				fromA := batch[0] == wantA[0]
				for j := range batch {
					want := wantB[j]
					if fromA {
						want = wantA[j]
					}
					if batch[j] != want {
						t.Errorf("batch answered by mixed models at %d: %+v", j, batch[j])
						return
					}
				}
			}
		}(g)
	}

	// The swapper keeps flipping models for the workers' whole lifetime.
	workers.Wait()
	close(stop)
	swapper.Wait()
	if swaps.Load() == 0 {
		t.Error("no swaps landed while workers were querying")
	}
}

// TestHTTPAssignDuringSwap drives the full HTTP path under concurrent
// swaps: cluster, center and distance in one response must all come from
// the same model.
func TestHTTPAssignDuringSwap(t *testing.T) {
	const k = 16
	mA, mB := gridModel(t, k, 0), gridModel(t, k, 100)
	s := newServer(t, mA, Options{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		models := [2]*model.Model{mB, mA}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Swap(models[i%2]); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()

	body := []byte(`{"point":[21,1]}`)
	for iter := 0; iter < 300; iter++ {
		req := httptest.NewRequest("POST", "/v1/assign", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		var resp assignResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cluster != 2 {
			t.Fatalf("cluster = %d", resp.Cluster)
		}
		y := resp.Center[1]
		wantDist := math.Sqrt(1*1 + (1-y)*(1-y))
		if resp.Distance != wantDist {
			t.Fatalf("torn response: center y=%v but distance %v (want %v)", y, resp.Distance, wantDist)
		}
	}
	close(stop)
	wg.Wait()
}
