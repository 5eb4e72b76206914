package serve

// Binary assign wire format.
//
// High-volume clients and load generators should not pay JSON: a batch
// of float64 points round-trips through decimal text at a multiple of
// its size and a large multiple of its decode cost. Both assign
// endpoints therefore also accept a request body in the GMPB point-frame
// encoding — exactly the on-disk format docs/formats.md specifies
// (12-byte header: "GMPB", version 1, reserved, dim; then n fixed-stride
// frames of dim little-endian float64s) — and answer with GMAB assign
// frames (same header discipline: "GMAB", version 1, reserved, k; then
// one 12-byte frame per point: uint32 cluster + float64 distance).
//
// Framing is selected by the body's magic bytes: a JSON body cannot
// begin with 'G''M''P''B', so sniffing is unambiguous and clients need
// no content-type ceremony (though application/x-gmab is set on
// responses). /v1/assign accepts exactly one frame; /v1/assign/batch up
// to DefaultMaxBatch. Binary requests return binary answers on success
// and the same typed JSON errors as the JSON path on failure — errors are
// not a hot path.
//
// The decoded points feed the very same assign routines as JSON requests,
// so the two framings are bit-identical by construction (pinned by TestBinaryAssignMatchesJSON).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/vec"
)

// AssignMagic identifies a binary assign response ("G-Means Assign
// Binary").
const AssignMagic = "GMAB"

// AssignVersion is the current response format version.
const AssignVersion = 1

// AssignHeaderLen is the byte length of the GMAB response header.
const AssignHeaderLen = 12

// AssignFrameLen is the byte length of one GMAB assign frame:
// uint32 cluster (LE) + 8 reserved-free bytes of float64 distance (LE).
const AssignFrameLen = 12

// assignContentType is the response content type for GMAB bodies.
const assignContentType = "application/x-gmab"

// isBinaryRequest reports whether a request body is GMPB-framed.
func isBinaryRequest(body []byte) bool {
	return len(body) >= 4 && string(body[:4]) == dfs.BinaryMagic
}

// AppendAssignHeader appends the 12-byte GMAB response header for a
// model of k centers.
func AppendAssignHeader(dst []byte, k int) []byte {
	dst = append(dst, AssignMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, AssignVersion)
	dst = binary.LittleEndian.AppendUint16(dst, 0)
	return binary.LittleEndian.AppendUint32(dst, uint32(k))
}

// AppendAssignFrame appends one 12-byte assign frame.
func AppendAssignFrame(dst []byte, a Assignment) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.Cluster))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.Distance))
}

// ParseAssignHeader validates a GMAB response header and returns the
// model's center count. The client half of the codec, for cmd/loadtest
// and tests.
func ParseAssignHeader(b []byte) (k int, err error) {
	if len(b) < AssignHeaderLen {
		return 0, fmt.Errorf("serve: assign response shorter than its header: %d bytes", len(b))
	}
	if string(b[:4]) != AssignMagic {
		return 0, fmt.Errorf("serve: bad assign response magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != AssignVersion {
		return 0, fmt.Errorf("serve: unsupported assign response version %d", v)
	}
	return int(binary.LittleEndian.Uint32(b[8:12])), nil
}

// DecodeAssignFrame decodes one 12-byte assign frame.
func DecodeAssignFrame(b []byte) Assignment {
	return Assignment{
		Cluster:  int(binary.LittleEndian.Uint32(b[:4])),
		Distance: math.Float64frombits(binary.LittleEndian.Uint64(b[4:12])),
	}
}

// decodeBinaryPoints validates a GMPB body against the model shape and
// decodes its frames into row vectors over one flat backing array.
// On failure it returns a typed error code + message for the client.
func decodeBinaryPoints(body []byte, dim, maxBatch int) (points []vec.Vector, code, msg string) {
	reqDim, err := dfs.ParseBinaryHeader(body)
	if err != nil {
		return nil, CodeBadBody, err.Error()
	}
	if reqDim != dim {
		return nil, CodeDimMismatch,
			fmt.Sprintf("points have %d dimensions, model wants %d", reqDim, dim)
	}
	stride := 8 * reqDim
	frames := body[dfs.BinaryHeaderLen:]
	if len(frames)%stride != 0 {
		return nil, CodeBadBody,
			fmt.Sprintf("binary body of %d frame bytes is not a multiple of the %d-byte stride", len(frames), stride)
	}
	n := len(frames) / stride
	if n == 0 {
		return nil, CodeEmptyBatch, "binary body holds no point frames"
	}
	if n > maxBatch {
		return nil, CodeTooLarge, fmt.Sprintf("batch of %d points exceeds limit %d", n, maxBatch)
	}
	flat := make([]float64, n*reqDim)
	points = make([]vec.Vector, n)
	for i := range points {
		row := flat[i*reqDim : (i+1)*reqDim : (i+1)*reqDim]
		dfs.DecodeBinaryFrame(row, frames[i*stride:])
		points[i] = row
	}
	return points, "", ""
}

// writeAssignBinary writes a GMAB response for out through a pooled
// buffer.
func writeAssignBinary(w http.ResponseWriter, k int, out []Assignment) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	buf.Reset()
	b := buf.AvailableBuffer()
	b = AppendAssignHeader(b, k)
	for _, a := range out {
		b = AppendAssignFrame(b, a)
	}
	buf.Write(b)
	w.Header().Set("Content-Type", assignContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// handleAssignBinary answers a GMPB-framed singleton on /v1/assign: the
// body must hold exactly one frame of the model's dimensionality.
func (s *Server) handleAssignBinary(w http.ResponseWriter, body []byte) {
	s.binReqs.Inc()
	a := s.active.Load()
	points, code, msg := decodeBinaryPoints(body, a.m.Dim, 1)
	if code != "" {
		if code == CodeTooLarge {
			msg = "binary /v1/assign takes exactly one point frame; use /v1/assign/batch"
		}
		httpError(w, http.StatusBadRequest, code, msg)
		return
	}
	asg, err := a.assign(points[0])
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeNumericRange, err.Error())
		return
	}
	writeAssignBinary(w, a.m.K, []Assignment{asg})
}

// handleAssignBatchBinary answers a GMPB-framed batch on
// /v1/assign/batch with one GMAB frame per request frame, in order.
func (s *Server) handleAssignBatchBinary(w http.ResponseWriter, body []byte) {
	s.binReqs.Inc()
	a := s.active.Load()
	points, code, msg := decodeBinaryPoints(body, a.m.Dim, DefaultMaxBatch)
	if code != "" {
		status := http.StatusBadRequest
		if code == CodeTooLarge {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, code, msg)
		return
	}
	out := make([]Assignment, len(points))
	if bad := a.assignInto(points, out); bad >= 0 {
		httpError(w, http.StatusBadRequest, CodeNumericRange,
			fmt.Sprintf("point %d: %v", bad, errNumericRange))
		return
	}
	writeAssignBinary(w, a.m.K, out)
}
