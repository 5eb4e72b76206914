package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gmeansmr/internal/vec"
)

// postRaw posts an arbitrary body and returns the recorder plus the
// decoded JSON error envelope (nil when the response is binary).
func postRaw(t *testing.T, s *Server, path string, body []byte) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	var decoded map[string]any
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
			t.Fatalf("POST %s: bad JSON error body %q", path, rec.Body.String())
		}
	}
	return rec, decoded
}

// TestBinaryAssignMatchesJSON pins the two wire framings to each other:
// the same point posted as GMPB and as JSON must yield the same cluster
// and bit-identical distance.
func TestBinaryAssignMatchesJSON(t *testing.T) {
	m := randomModel(t, 32, 16, 21)
	s := newServer(t, m, Options{})
	for i, q := range randomQueries(64, 16, 23) {
		jb, _ := json.Marshal(assignRequest{Point: q})
		rec, jr := doJSON(t, s, "POST", "/v1/assign", string(jb))
		if rec.Code != http.StatusOK {
			t.Fatalf("JSON assign %d: %d %s", i, rec.Code, rec.Body)
		}
		brec, _ := postRaw(t, s, "/v1/assign", encodeGMPB([]vec.Vector{q}, 16))
		if brec.Code != http.StatusOK {
			t.Fatalf("binary assign %d: %d %s", i, brec.Code, brec.Body)
		}
		if ct := brec.Header().Get("Content-Type"); ct != assignContentType {
			t.Fatalf("binary assign content type %q", ct)
		}
		k, asgs, err := decodeGMAB(brec.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if k != m.K || len(asgs) != 1 {
			t.Fatalf("binary assign %d: k=%d frames=%d", i, k, len(asgs))
		}
		if float64(asgs[0].Cluster) != jr["cluster"].(float64) ||
			asgs[0].Distance != jr["distance"].(float64) {
			t.Fatalf("binary assign %d = %+v, JSON said cluster=%v distance=%v",
				i, asgs[0], jr["cluster"], jr["distance"])
		}
	}
}

// TestBinaryAssignRejectsMalformed walks the GMPB failure modes on both
// endpoints and asserts status + typed code. Binary requests answer
// errors in the JSON envelope — errors are not a hot path.
func TestBinaryAssignRejectsMalformed(t *testing.T) {
	s := newServer(t, gridModel(t, 16, 0), Options{}) // dim 2
	one := encodeGMPB([]vec.Vector{{1, 2}}, 2)
	two := encodeGMPB([]vec.Vector{{1, 2}, {3, 4}}, 2)
	cases := []struct {
		name       string
		path       string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"truncated header", "/v1/assign", one[:7], 400, CodeBadBody},
		{"header only", "/v1/assign/batch", one[:12], 400, CodeEmptyBatch},
		{"truncated frame", "/v1/assign/batch", two[:len(two)-5], 400, CodeBadBody},
		{"bad version", "/v1/assign", append([]byte("GMPB\xff\xff"), one[6:]...), 400, CodeBadBody},
		{"dim mismatch", "/v1/assign", encodeGMPB([]vec.Vector{{1, 2, 3}}, 3), 400, CodeDimMismatch},
		{"multi-frame singleton", "/v1/assign", two, 400, CodeTooLarge},
		{"nan point", "/v1/assign", encodeGMPB([]vec.Vector{{math.NaN(), 2}}, 2), 400, CodeNumericRange},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, resp := postRaw(t, s, tc.path, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body)
			}
			if resp == nil || resp["code"] != tc.wantCode {
				t.Fatalf("code %v, want %q (body %s)", resp["code"], tc.wantCode, rec.Body)
			}
		})
	}

	// The batch-size boundary, mirroring JSON: DefaultMaxBatch frames are
	// answered, one more is 413 with the typed code.
	points := randomQueries(DefaultMaxBatch+1, 2, 1)
	if rec, _ := postRaw(t, s, "/v1/assign/batch", encodeGMPB(points[:DefaultMaxBatch], 2)); rec.Code != http.StatusOK {
		t.Fatalf("binary batch of DefaultMaxBatch points: status %d, want 200", rec.Code)
	}
	rec, resp := postRaw(t, s, "/v1/assign/batch", encodeGMPB(points, 2))
	if rec.Code != http.StatusRequestEntityTooLarge || resp["code"] != CodeTooLarge {
		t.Fatalf("oversized binary batch: %d %s", rec.Code, rec.Body)
	}
}

// TestAssignHeaderRoundTrip covers the GMAB client-side codec against
// hand-corrupted headers.
func TestAssignHeaderRoundTrip(t *testing.T) {
	h := AppendAssignHeader(nil, 42)
	if len(h) != AssignHeaderLen {
		t.Fatalf("header length %d", len(h))
	}
	k, err := ParseAssignHeader(h)
	if err != nil || k != 42 {
		t.Fatalf("ParseAssignHeader = %d, %v", k, err)
	}
	if _, err := ParseAssignHeader(h[:5]); err == nil {
		t.Error("short header accepted")
	}
	bad := append([]byte("XXXX"), h[4:]...)
	if _, err := ParseAssignHeader(bad); err == nil {
		t.Error("bad magic accepted")
	}
	badVer := append([]byte(nil), h...)
	badVer[4], badVer[5] = 0xff, 0xff
	if _, err := ParseAssignHeader(badVer); err == nil {
		t.Error("future version accepted")
	}

	frame := AppendAssignFrame(nil, Assignment{Cluster: 7, Distance: math.Pi})
	if len(frame) != AssignFrameLen {
		t.Fatalf("frame length %d", len(frame))
	}
	if got := DecodeAssignFrame(frame); got != (Assignment{Cluster: 7, Distance: math.Pi}) {
		t.Fatalf("frame round-trip = %+v", got)
	}
}
