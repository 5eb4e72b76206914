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

func fuzzWorker() *Worker {
	w := NewWorker()
	w.addr = "127.0.0.1:1"
	w.client = &http.Client{Transport: blockedTransport{}}
	return w
}

// fuzzTaskPrefix encodes the common taskRequest prefix with an
// unregistered kind: deep enough to drive every decode path, while
// buildParts rejects execution (fuzz inputs must not run real tasks).
func fuzzTaskPrefix(e *Encoder) {
	e.Str("job-1").Str("fuzz").Str("fuzz.nokind").Blob([]byte{1, 2, 3})
	e.U32(2).U32(2).U32(2)   // cluster: nodes, map slots, reduce slots
	e.I64(64 << 20).F64(.66) // task heap, max usage
	e.U32(0).U32(2)          // point dim, reducers
}

func fuzzMapFrame() []byte {
	e := new(Encoder).Begin()
	fuzzTaskPrefix(e)
	e.U32(0)                                  // task id
	e.Str("/nums.txt").U32(0).I64(0).I64(128) // split
	e.I64(0)                                  // replica version
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

func fuzzShuffleFrame() []byte {
	return new(Encoder).Begin().
		Str("job-1").U32(0).U32(2).U32(0).U32(1).Bytes()
}

// FuzzWorkerEndpoints throws corrupt and truncated GMWR frames at the
// worker's task and shuffle endpoints. The contract: no panic, no
// unbounded allocation, and every 200 response is itself a well-formed
// GMWR frame (anything else must be an HTTP error status).
func FuzzWorkerEndpoints(f *testing.F) {
	paths := []string{"/v1/task/map", "/v1/task/reduce", "/v1/shuffle"}
	for i, frame := range [][]byte{fuzzMapFrame(), fuzzReduceFrame(), fuzzShuffleFrame()} {
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
	f.Add(0, []byte(nil))
	f.Add(0, []byte("GMW"))
	f.Add(1, []byte("XXXX\x01rest"))
	f.Add(2, []byte("GMWR\x07rest"))

	f.Fuzz(func(t *testing.T, which int, data []byte) {
		if len(data) > 1<<16 {
			return // bound per-iteration work
		}
		path := paths[((which%3)+3)%3]
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
