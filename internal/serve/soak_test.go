package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"gmeansmr/internal/model"
	"gmeansmr/internal/vec"
)

// TestAssignUnderReloadSoak hammers both assign endpoints, in both wire
// framings, while a reloader hot-swaps the model as fast as it can. Run
// under -race this is the serving path's torn-state detector. Every
// response must be wholly consistent with exactly one of the two
// alternating models: cluster, distance, and (for JSON singles) the
// echoed center must all come from the same snapshot, and a batch must
// be answered end-to-end by one snapshot.
func TestAssignUnderReloadSoak(t *testing.T) {
	const dim, k = 8, 20
	mA := randomModel(t, k, dim, 100)
	mB := randomModel(t, k, dim, 200)
	var flip atomic.Bool
	loader := func() (*model.Model, error) {
		if flip.Load() {
			return mB, nil
		}
		return mA, nil
	}
	s := newServer(t, mA, Options{Loader: loader})

	probes := randomQueries(16, dim, 300)
	type answer struct {
		asg    Assignment
		center vec.Vector
	}
	expect := func(m *model.Model) []answer {
		out := make([]answer, len(probes))
		for i, q := range probes {
			wi, wd := vec.NearestIndex(q, m.Centers)
			out[i] = answer{Assignment{Cluster: wi, Distance: math.Sqrt(wd)}, m.Centers[wi]}
		}
		return out
	}
	wantA, wantB := expect(mA), expect(mB)

	// matches reports whether got is probe i's answer under the model
	// behind want, with the echoed center (when present) from that same
	// model — a cluster from one snapshot with a center from another is
	// the torn state this soak exists to catch.
	matches := func(i int, got Assignment, center vec.Vector, want []answer) bool {
		if got != want[i].asg {
			return false
		}
		if center == nil {
			return true
		}
		if len(center) != dim {
			return false
		}
		for j := range center {
			if center[j] != want[i].center[j] {
				return false
			}
		}
		return true
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := make(chan string, 1)
	flunk := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
		stop.Store(true)
	}

	// The reloader: alternate the loader's answer and hot-swap it in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for n := 0; n < 300; n++ {
			flip.Store(n%2 == 1)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/model/reload", nil))
			if rec.Code != http.StatusOK {
				flunk("reload failed: " + rec.Body.String())
				return
			}
		}
	}()

	// JSON singles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i = (i + 1) % len(probes) {
			body, _ := json.Marshal(assignRequest{Point: probes[i]})
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/assign", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				flunk("JSON single: " + rec.Body.String())
				return
			}
			var resp assignResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				flunk("JSON single decode: " + err.Error())
				return
			}
			got := Assignment{Cluster: resp.Cluster, Distance: resp.Distance}
			if !matches(i, got, resp.Center, wantA) && !matches(i, got, resp.Center, wantB) {
				flunk("JSON single: torn response " + rec.Body.String())
				return
			}
		}
	}()

	// Binary singles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i = (i + 1) % len(probes) {
			body := encodeGMPB([]vec.Vector{probes[i]}, dim)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/assign", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				flunk("binary single: " + rec.Body.String())
				return
			}
			_, asgs, err := decodeGMAB(rec.Body.Bytes())
			if err != nil {
				flunk("binary single decode: " + err.Error())
				return
			}
			if len(asgs) != 1 ||
				(!matches(i, asgs[0], nil, wantA) && !matches(i, asgs[0], nil, wantB)) {
				flunk("binary single: wrong answer for either model")
				return
			}
		}
	}()

	// Batches, alternating framings; the whole batch must come from one
	// snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; !stop.Load(); n++ {
			rec := httptest.NewRecorder()
			if n%2 == 0 {
				body, _ := json.Marshal(batchRequest{Points: probes})
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/assign/batch", bytes.NewReader(body)))
			} else {
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/assign/batch",
					bytes.NewReader(encodeGMPB(probes, dim))))
			}
			if rec.Code != http.StatusOK {
				flunk("batch: " + rec.Body.String())
				return
			}
			var got []Assignment
			if n%2 == 0 {
				var resp batchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					flunk("batch decode: " + err.Error())
					return
				}
				got = resp.Assignments
			} else {
				var err error
				if _, got, err = decodeGMAB(rec.Body.Bytes()); err != nil {
					flunk("batch decode: " + err.Error())
					return
				}
			}
			if len(got) != len(probes) {
				flunk("batch: short answer")
				return
			}
			allA, allB := true, true
			for i := range got {
				allA = allA && got[i] == wantA[i].asg
				allB = allB && got[i] == wantB[i].asg
			}
			if !allA && !allB {
				flunk("batch answered by a mix of snapshots")
				return
			}
		}
	}()

	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if swaps := s.Metrics().Counter("serve_model_swaps_total").Value(); swaps < 300 {
		t.Fatalf("only %d swaps recorded; reloader did not run", swaps)
	}
}
