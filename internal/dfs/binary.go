package dfs

// Binary point-record format.
//
// The paper's storage model describes points as text ("~15 characters per
// dimension"); parsing that text is pure CPU tax the cost model never
// charges for. This file defines the repository's binary alternative: a
// fixed-size header carrying the dimensionality followed by fixed-stride
// frames of little-endian IEEE 754 float64 coordinates, one frame per
// point. It is the on-disk and serving format: generated datasets, files
// opened with gmeansmr.FromFile and /v1/assign/batch bodies. The DFS itself
// stores text only — a binary body there is rejected by OpenSplitPoints
// with ErrBinaryFile.
//
// Layout:
//
//	offset 0:  magic "GMPB" (4 bytes)
//	offset 4:  version  uint16 LE (currently 1)
//	offset 6:  reserved uint16 LE (zero)
//	offset 8:  dim      uint32 LE
//	offset 12: frames, each dim × 8 bytes of little-endian float64

import (
	"encoding/binary"
	"fmt"
	"math"
)

// BinaryMagic identifies a binary point file ("G-Means Point Binary").
const BinaryMagic = "GMPB"

// BinaryVersion is the current format version written by the encoder.
const BinaryVersion = 1

// BinaryHeaderLen is the byte length of the file header.
const BinaryHeaderLen = 12

// maxBinaryDim bounds the dimensionality a header may declare; it exists
// to fail corrupt headers loudly instead of attempting absurd allocations.
const maxBinaryDim = 1 << 20

// IsBinary reports whether data begins with the binary point-file magic.
// Split scans reject such files (see ErrBinaryFile).
func IsBinary(data []byte) bool {
	return len(data) >= len(BinaryMagic) && string(data[:len(BinaryMagic)]) == BinaryMagic
}

// BinaryHeader renders the file header for points of the given
// dimensionality.
func BinaryHeader(dim int) []byte {
	h := make([]byte, BinaryHeaderLen)
	copy(h, BinaryMagic)
	binary.LittleEndian.PutUint16(h[4:], BinaryVersion)
	binary.LittleEndian.PutUint32(h[8:], uint32(dim))
	return h
}

// AppendBinaryPoint appends one point frame (dim × 8 bytes, little-endian
// float64) to dst and returns the extended slice.
func AppendBinaryPoint(dst []byte, p []float64) []byte {
	for _, x := range p {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// ParseBinaryHeader validates a binary point-file header (the first
// BinaryHeaderLen bytes) and returns the declared dimensionality. It
// checks the header only; whole-file readers additionally verify the body
// is an exact multiple of the frame size. Exported for streaming readers
// outside this package that consume the format frame by frame.
func ParseBinaryHeader(header []byte) (int, error) {
	if len(header) < BinaryHeaderLen {
		return 0, fmt.Errorf("dfs: binary file truncated inside header (%d bytes)", len(header))
	}
	if !IsBinary(header) {
		return 0, fmt.Errorf("dfs: not a binary point file")
	}
	if v := binary.LittleEndian.Uint16(header[4:]); v != BinaryVersion {
		return 0, fmt.Errorf("dfs: binary format version %d, this build reads %d", v, BinaryVersion)
	}
	dim := int(binary.LittleEndian.Uint32(header[8:]))
	if dim <= 0 || dim > maxBinaryDim {
		return 0, fmt.Errorf("dfs: binary header declares dim %d, want 1..%d", dim, maxBinaryDim)
	}
	return dim, nil
}

// DecodeBinaryFrame decodes one dim-coordinate frame into p (len(p) ==
// dim; frame holds at least 8·dim bytes).
func DecodeBinaryFrame(p []float64, frame []byte) {
	for d := range p {
		p[d] = math.Float64frombits(binary.LittleEndian.Uint64(frame[d*8:]))
	}
}

// binaryDim validates the header of a whole in-memory binary file and its
// body framing, returning the declared dimensionality. The caller has
// already checked IsBinary.
func binaryDim(data []byte) (int, error) {
	dim, err := ParseBinaryHeader(data)
	if err != nil {
		return 0, err
	}
	if (len(data)-BinaryHeaderLen)%(8*dim) != 0 {
		return 0, fmt.Errorf("dfs: binary file body is %d bytes, not a multiple of the %d-byte frame",
			len(data)-BinaryHeaderLen, 8*dim)
	}
	return dim, nil
}

// DecodeBinaryPoints decodes a whole binary point file into its declared
// dimensionality and a flat coordinate array (Len = len(flat)/dim points).
// Used by whole-file readers of point files outside the DFS.
func DecodeBinaryPoints(data []byte) (dim int, flat []float64, err error) {
	if !IsBinary(data) {
		return 0, nil, fmt.Errorf("dfs: not a binary point file")
	}
	dim, err = binaryDim(data)
	if err != nil {
		return 0, nil, err
	}
	body := data[BinaryHeaderLen:]
	flat = make([]float64, len(body)/8)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
	}
	return dim, flat, nil
}
