package mrdist

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// blockedTransport fails every outbound request instantly, so fuzzed
// reduce frames whose map-output locations mutate into reachable-looking
// addresses can never touch the network.
type blockedTransport struct{}

func (blockedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("network blocked under fuzzing")
}

// fuzzWorker returns a worker that already holds the split fuzzMapFrame
// names, so fuzzed map frames get past the split lookup.
func fuzzWorker() *Worker {
	w := NewWorker()
	w.addr = "127.0.0.1:1"
	w.client = &http.Client{Transport: blockedTransport{}}
	w.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/fs/push", bytes.NewReader(fuzzPushFrame())))
	return w
}

// fuzzTaskPrefix encodes the common taskRequest prefix with an
// unregistered kind: deep enough to drive every decode path, while
// buildParts rejects execution (fuzz inputs must not run real tasks).
func fuzzTaskPrefix(e *Encoder) {
	e.Str("job-1").Str("fuzz").Str("fuzz.nokind").Blob([]byte{1, 2, 3})
	e.U32(2).U32(2).U32(2)   // cluster: nodes, map slots, reduce slots
	e.I64(64 << 20).F64(.66) // task heap, max usage
	e.U32(2).U32(2)          // point dim, reducers
}

func fuzzMapFrame() []byte {
	e := new(Encoder).Begin()
	fuzzTaskPrefix(e)
	e.U32(0) // task id
	fuzzSplitKey(e)
	return e.Bytes()
}

// fuzzSplitKey encodes the split both the push and the map frame name:
// path, version, index, start, end.
func fuzzSplitKey(e *Encoder) {
	e.Str("/nums.txt").I64(1).U32(0).I64(0).I64(128)
}

func fuzzPushFrame() []byte {
	e := new(Encoder).Begin()
	fuzzSplitKey(e)
	e.U32(2).I64(12) // dim, logical text bytes
	e.Vec([]float64{1, 2, 3, 4})
	return e.Bytes()
}

func fuzzReduceFrame() []byte {
	e := new(Encoder).Begin()
	fuzzTaskPrefix(e)
	e.U32(0)                               // partition
	e.U32(2)                               // map task count
	e.Str("127.0.0.1:1").Str("10.0.0.9:1") // self + blocked peer
	return e.Bytes()
}

// fuzzLastPassFrame is a map-task request of G-means' last k-means pass
// (the gmeans.lastpass kind) on the pushed split: a found count of 1 and
// two centers of the split's dim. Unlike the frames above it names a
// registered kind — this test binary links internal/core through the
// package's external tests — so the corpus drives a real payload decoder
// and mapper.
func fuzzLastPassFrame() []byte { return lastPassMapFrame(2, 2) }

// lastPassMapFrame is fuzzLastPassFrame with the given node and reducer
// counts.
func lastPassMapFrame(nodes, reducers uint32) []byte {
	payload := new(Encoder).Begin()
	payload.I64(3).U32(1) // power-iteration seed, found count
	payload.U32(2).Vec([]float64{1, 2}).Vec([]float64{3, 4})
	e := new(Encoder).Begin()
	e.Str("job-1").Str("fuzz").Str("gmeans.lastpass").Blob(payload.Bytes())
	e.U32(nodes).U32(2).U32(2) // cluster: nodes, map slots, reduce slots
	e.I64(64 << 20).F64(.66)   // task heap, max usage
	e.U32(2).U32(reducers)     // point dim, reducers
	e.U32(0)                   // task id
	fuzzSplitKey(e)
	return e.Bytes()
}

// TestFuzzLastPassFrameRuns checks that the corpus's gmeans.lastpass frame
// runs its map task (a rejected frame would leave the kind unfuzzed), and
// that the same task request with no nodes or a reducer count outside
// [1, maxReducers] answers 400 before it runs: a map task divides its id
// by the node count and allocates one run per reducer.
func TestFuzzLastPassFrameRuns(t *testing.T) {
	post := func(frame []byte) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		fuzzWorker().Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/task/map", bytes.NewReader(frame)))
		return rr
	}
	rr := post(fuzzLastPassFrame())
	if st := NewDecoder(rr.Body.Bytes()).U8(); rr.Code != http.StatusOK || st != statusOK {
		t.Fatalf("HTTP %d, status %d: %s", rr.Code, st, rr.Body.String())
	}
	for _, c := range []struct{ nodes, reducers uint32 }{{0, 2}, {2, 0}, {2, maxReducers + 1}} {
		if rr := post(lastPassMapFrame(c.nodes, c.reducers)); rr.Code != http.StatusBadRequest {
			t.Errorf("%d nodes, %d reducers: HTTP %d, want 400", c.nodes, c.reducers, rr.Code)
		}
	}
}

func fuzzShuffleFrame() []byte {
	return new(Encoder).Begin().
		Str("job-1").U32(0).U32(2).U32(0).U32(1).Bytes()
}

// FuzzWorkerEndpoints throws corrupt and truncated GMWR frames at the
// worker's push, task and shuffle endpoints. The contract: no panic, no
// unbounded allocation, and every 200 response is itself a well-formed
// GMWR frame (anything else must be an HTTP error status).
func FuzzWorkerEndpoints(f *testing.F) {
	paths := []string{"/v1/task/map", "/v1/task/reduce", "/v1/shuffle", "/v1/fs/push"}
	addFrame := func(i int, frame []byte) {
		f.Add(i, frame)
		// Truncations, including mid-envelope and mid-field cuts.
		for _, cut := range []int{0, 3, 5, 9, len(frame) / 2, len(frame) - 1} {
			f.Add(i, frame[:cut])
		}
		// Bit-rot past the envelope (the wire_test corruption idiom).
		cor := append([]byte(nil), frame...)
		for j := 5; j < len(cor); j += 7 {
			cor[j] ^= 0xA5
		}
		f.Add(i, cor)
	}
	for i, frame := range [][]byte{fuzzMapFrame(), fuzzReduceFrame(), fuzzShuffleFrame(), fuzzPushFrame()} {
		addFrame(i, frame)
	}
	f.Add(0, []byte(nil))
	f.Add(0, []byte("GMW"))
	f.Add(1, []byte("XXXX\x01rest"))
	f.Add(2, []byte("GMWR\x08rest"))
	addFrame(0, fuzzLastPassFrame())

	f.Fuzz(func(t *testing.T, which int, data []byte) {
		if len(data) > 1<<16 {
			return // bound per-iteration work
		}
		path := paths[((which%len(paths))+len(paths))%len(paths)]
		h := fuzzWorker().Handler()
		req := httptest.NewRequest("POST", path, bytes.NewReader(data))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code == http.StatusOK {
			if err := NewDecoder(rr.Body.Bytes()).Err(); err != nil {
				t.Fatalf("%s returned 200 with a malformed frame: %v", path, err)
			}
		}
	})
}
