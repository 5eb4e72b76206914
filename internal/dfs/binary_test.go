package dfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// binaryFile encodes n random points of dim coordinates and returns the
// file bytes plus the expected decoded values.
func binaryFile(n, dim int, seed int64) ([]byte, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	data := BinaryHeader(dim)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.NormFloat64() * 100
		}
		pts[i] = p
		data = AppendBinaryPoint(data, p)
	}
	return data, pts
}

func TestBinaryRoundTrip(t *testing.T) {
	data, want := binaryFile(100, 5, 1)
	if !IsBinary(data) {
		t.Fatal("encoded file not recognized as binary")
	}
	dim, flat, err := DecodeBinaryPoints(data)
	if err != nil {
		t.Fatal(err)
	}
	if dim != 5 || len(flat) != 500 {
		t.Fatalf("decoded dim=%d len=%d", dim, len(flat))
	}
	for i, p := range want {
		for d, x := range p {
			if got := flat[i*5+d]; got != x && !(math.IsNaN(got) && math.IsNaN(x)) {
				t.Fatalf("point %d dim %d: %v != %v", i, d, got, x)
			}
		}
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	data, _ := binaryFile(4, 3, 3)

	// A truncated frame is a corrupt file.
	if _, _, err := DecodeBinaryPoints(data[:len(data)-5]); err == nil {
		t.Error("truncated frame accepted")
	}

	// An unknown version must be rejected, not misdecoded.
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(bad[4:], 99)
	if _, _, err := DecodeBinaryPoints(bad); err == nil {
		t.Error("future version accepted")
	}

	// A zero-dim header is corrupt.
	if _, _, err := DecodeBinaryPoints(BinaryHeader(0)); err == nil {
		t.Error("zero-dim header accepted")
	}

	// Whole-file decode of a non-binary file.
	if _, _, err := DecodeBinaryPoints([]byte("1 2 3\n")); err == nil {
		t.Error("text file accepted by DecodeBinaryPoints")
	}
}

// TestOpenSplitRejectsBinary: the DFS stores text only, so split scans
// over frame bytes must fail typed, naming the path, on every split —
// never mis-parse the frames as lines.
func TestOpenSplitRejectsBinary(t *testing.T) {
	data, _ := binaryFile(20, 2, 4)
	fs := New(64)
	fs.Create("/b", data)
	splits, _ := fs.Splits("/b")
	if len(splits) < 2 {
		t.Fatalf("want several splits, got %d", len(splits))
	}
	for _, sp := range splits {
		if _, err := fs.OpenSplitPoints(sp, 2); !errors.Is(err, ErrBinaryFile) || !strings.Contains(err.Error(), "/b") {
			t.Fatalf("OpenSplitPoints split %d: err = %v, want ErrBinaryFile naming /b", sp.Index, err)
		}
	}
}

// TestBinarySpecialValues: the codec must round-trip bit patterns the
// text format cannot (±Inf and NaN never survive a text parse path that
// validates; the codec itself must be exact).
func TestBinarySpecialValues(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-308}
	data := BinaryHeader(len(vals))
	data = AppendBinaryPoint(data, vals)
	dim, got, err := DecodeBinaryPoints(data)
	if err != nil {
		t.Fatal(err)
	}
	if dim != len(vals) || len(got) != len(vals) {
		t.Fatalf("decoded dim %d, %d coordinates", dim, len(got))
	}
	for d, x := range vals {
		if math.Float64bits(got[d]) != math.Float64bits(x) {
			t.Errorf("dim %d: bits %x != %x", d, math.Float64bits(got[d]), math.Float64bits(x))
		}
	}
}

// FuzzDecodeBinaryPoints drives the GMPB decoders that take bytes from
// outside the program — ParseBinaryHeader and DecodeBinaryPoints — with
// arbitrary input: they must never panic or over-allocate, and whatever
// DecodeBinaryPoints accepts must re-encode to the identical body bytes.
func FuzzDecodeBinaryPoints(f *testing.F) {
	valid, _ := binaryFile(3, 2, 6)
	f.Add(valid)
	f.Add(BinaryHeader(2))                                // header only: zero frames
	f.Add(valid[:len(valid)-3])                           // truncated frame
	f.Add([]byte("GMPBxxxx"))                             // truncated header
	f.Add([]byte("GMPB\x01\x00\x00\x00\xff\xff\xff\xff")) // absurd dim
	f.Add([]byte("1 2 3\n4 5 6\n"))                       // text masquerading
	f.Fuzz(func(t *testing.T, data []byte) {
		hdrDim, hdrErr := ParseBinaryHeader(data)
		if hdrErr == nil && (!IsBinary(data) || hdrDim <= 0 || hdrDim > maxBinaryDim) {
			t.Fatalf("header accepted with dim %d", hdrDim)
		}
		dim, flat, err := DecodeBinaryPoints(data)
		if err != nil {
			return
		}
		if hdrErr != nil || dim != hdrDim {
			t.Fatalf("whole-file decode accepted dim %d; header decode: dim %d, err %v", dim, hdrDim, hdrErr)
		}
		if len(flat)%dim != 0 {
			t.Fatalf("decoded %d coordinates of dim %d", len(flat), dim)
		}
		if body := AppendBinaryPoint(nil, flat); !bytes.Equal(body, data[BinaryHeaderLen:]) {
			t.Fatalf("decoded %d coordinates do not re-encode to the %d-byte body", len(flat), len(data)-BinaryHeaderLen)
		}
	})
}
