package mrdist

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"gmeansmr/internal/mr"
	"gmeansmr/internal/retry"
	"gmeansmr/internal/vec"
)

func TestDecoderEnvelope(t *testing.T) {
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"short", []byte("GMW")},
		{"bad magic", []byte("XXXX\x01rest")},
		{"bad version", []byte("GMWR\x07rest")},
	}
	for _, tc := range cases {
		if err := NewDecoder(tc.body).Err(); err == nil {
			t.Errorf("%s: NewDecoder accepted invalid envelope", tc.name)
		}
	}
	if err := NewDecoder(new(Encoder).Begin().Bytes()).Err(); err != nil {
		t.Fatalf("valid empty envelope rejected: %v", err)
	}
}

func TestScalarRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff80000deadbeef) // NaN with a payload
	e := new(Encoder).Begin().
		U8(0xab).Bool(true).Bool(false).
		U32(0).U32(1<<32 - 1).
		I64(-1).I64(1<<62 + 3).
		F64(0).F64(math.Copysign(0, -1)).F64(math.Inf(-1)).F64(nan).
		Str("").Str("héllo\x00world").
		Blob(nil).Blob([]byte{1, 2, 3}).
		Vec(nil).Vec(vec.Vector{1.5, nan})

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.U32(); got != 0 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.U32(); got != 1<<32-1 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.I64(); got != -1 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.I64(); got != 1<<62+3 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.F64(); math.Float64bits(got) != 0 {
		t.Errorf("F64(+0) bits = %#x", math.Float64bits(got))
	}
	if got := d.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("F64(-0) bits = %#x", math.Float64bits(got))
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64(-Inf) = %v", got)
	}
	if got := d.F64(); math.Float64bits(got) != 0x7ff80000deadbeef {
		t.Errorf("F64 NaN payload not preserved: %#x", math.Float64bits(got))
	}
	if got := d.Str(); got != "" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Str(); got != "héllo\x00world" {
		t.Errorf("Str = %q", got)
	}
	if got := d.Blob(); len(got) != 0 {
		t.Errorf("Blob = %v", got)
	}
	if got := d.Blob(); !reflect.DeepEqual(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := d.Vec(); got != nil {
		t.Errorf("Vec(nil) = %v", got)
	}
	got := d.Vec()
	if len(got) != 2 || got[0] != 1.5 || math.Float64bits(got[1]) != 0x7ff80000deadbeef {
		t.Errorf("Vec = %v (bits %#x)", got, math.Float64bits(got[1]))
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
}

func TestValueRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff0000000c0ffee)
	values := []mr.Value{
		mr.Float64Value(3.75),
		mr.Float64Value(nan),
		mr.Int64Value(-42),
		mr.BoolValue(true),
		mr.PointValue{Coords: vec.Vector{1, 2, nan}},
		mr.WeightedPointValue{WeightedPoint: vec.WeightedPoint{Sum: vec.Vector{0.5, -0.5}, Count: 9}},
		mr.ADDecisionValue{A2Star: 1.094, N: 123, Normal: false},
	}
	e := new(Encoder).Begin()
	for _, v := range values {
		if err := e.EncodeValue(v); err != nil {
			t.Fatalf("EncodeValue(%T): %v", v, err)
		}
	}
	d := NewDecoder(e.Bytes())
	for i, want := range values {
		got := d.DecodeValue()
		if !valueBitsEqual(got, want) {
			t.Errorf("value %d: got %#v, want %#v", i, got, want)
		}
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
}

// valueBitsEqual compares values with float64 fields bit for bit, so NaN
// payloads count as equal to themselves.
func valueBitsEqual(a, b mr.Value) bool {
	switch x := a.(type) {
	case mr.Float64Value:
		y, ok := b.(mr.Float64Value)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case mr.PointValue:
		y, ok := b.(mr.PointValue)
		return ok && vecBitsEqual(x.Coords, y.Coords)
	case mr.WeightedPointValue:
		y, ok := b.(mr.WeightedPointValue)
		return ok && x.Count == y.Count && vecBitsEqual(x.Sum, y.Sum)
	case mr.ADDecisionValue:
		y, ok := b.(mr.ADDecisionValue)
		return ok && x.N == y.N && x.Normal == y.Normal &&
			math.Float64bits(x.A2Star) == math.Float64bits(y.A2Star)
	default:
		return reflect.DeepEqual(a, b)
	}
}

func vecBitsEqual(a, b vec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestKVsRoundTrip(t *testing.T) {
	kvs := []mr.KV{
		{Key: -7, Value: mr.Int64Value(1)},
		{Key: 0, Value: mr.Float64Value(2.5)},
		{Key: 1 << 40, Value: mr.PointValue{Coords: vec.Vector{9}}},
	}
	e := new(Encoder).Begin()
	if err := e.KVs(kvs); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(e.Bytes())
	got := d.KVs()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, kvs) {
		t.Errorf("KVs round trip: got %#v, want %#v", got, kvs)
	}

	// An empty list decodes as nil, like a task that emitted nothing.
	e = new(Encoder).Begin()
	if err := e.KVs(nil); err != nil {
		t.Fatal(err)
	}
	d = NewDecoder(e.Bytes())
	if got := d.KVs(); got != nil || d.Err() != nil {
		t.Errorf("empty KVs: got %v, err %v", got, d.Err())
	}
}

func TestCountersRoundTripKeepsZeroTouched(t *testing.T) {
	src := mr.NewCounters()
	src.Add("app.points", 100)
	src.Add("mr.map.records", 41)
	// Touched but zero: must still cross the wire, or the merged counter
	// set loses a name the local backend reports.
	src.Add("app.empty", 0)

	e := new(Encoder).Begin()
	e.Counters(src)

	dst := mr.NewCounters()
	dst.Add("mr.map.records", 1) // pre-existing count merges additively
	d := NewDecoder(e.Bytes())
	if !d.MergeCounters(dst) {
		t.Fatalf("MergeCounters failed: %v", d.Err())
	}
	want := map[string]int64{
		"app.points":     100,
		"mr.map.records": 42,
		"app.empty":      0,
	}
	if got := dst.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("merged counters = %v, want %v", got, want)
	}
}

func TestTruncationIsSticky(t *testing.T) {
	e := new(Encoder).Begin().Str("hello").I64(7)
	full := e.Bytes()
	// Chop mid-string: the length prefix promises more bytes than exist.
	trunc := full[:len(full)-12]

	d := NewDecoder(trunc)
	if got := d.Str(); got != "" {
		t.Errorf("truncated Str = %q, want zero value", got)
	}
	if got := d.I64(); got != 0 {
		t.Errorf("read after failure = %d, want 0", got)
	}
	if d.Err() == nil {
		t.Fatal("truncated message decoded without error")
	}

	// A Vec whose count promises more doubles than the buffer holds must
	// fail without allocating the promised size.
	e = new(Encoder).Begin().U32(1 << 30)
	d = NewDecoder(e.Bytes())
	if v := d.Vec(); v != nil || d.Err() == nil {
		t.Errorf("oversized Vec: got %v, err %v", v, d.Err())
	}
}

func TestUnknownValueTagFails(t *testing.T) {
	e := new(Encoder).Begin().U8(250) // no codec registered for 250
	d := NewDecoder(e.Bytes())
	if v := d.DecodeValue(); v != nil {
		t.Errorf("DecodeValue on unknown tag = %#v", v)
	}
	if d.Err() == nil {
		t.Fatal("unknown tag decoded without error")
	}
}

// pairValueTest is an app value only TestRegisteredCodecRoundTrip knows
// about. Its codec is registered from init, as RegisterValueCodec asks,
// so the test can run more than once in one process.
func init() {
	RegisterValueCodec(TagAppBase+100, ValueCodec{
		Encode: func(e *Encoder, v mr.Value) bool {
			p, ok := v.(pairValueTest)
			if !ok {
				return false
			}
			e.I64(p.A).I64(p.B)
			return true
		},
		Decode: func(d *Decoder) mr.Value {
			return pairValueTest{A: d.I64(), B: d.I64()}
		},
	})
}

func TestRegisteredCodecRoundTrip(t *testing.T) {
	want := pairValueTest{A: 5, B: -9}
	e := new(Encoder).Begin()
	if err := e.EncodeValue(want); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(e.Bytes())
	got := d.DecodeValue()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("registered codec round trip: got %#v, want %#v", got, want)
	}

	// A value no codec claims is an encode-time error, and the probe must
	// not leave a half-written tag behind.
	e = new(Encoder).Begin()
	before := len(e.Bytes())
	if err := e.EncodeValue(unknownValueTest{}); err == nil {
		t.Fatal("EncodeValue accepted a type with no codec")
	}
	if len(e.Bytes()) != before {
		t.Errorf("failed encode left %d stray bytes", len(e.Bytes())-before)
	}
}

type pairValueTest struct{ A, B int64 }

func (pairValueTest) ByteSize() int { return 16 }

type unknownValueTest struct{}

func (unknownValueTest) ByteSize() int { return 0 }

// TestReadPushBodyPresize: a body as long as its Content-Length is read into
// one buffer sized from the header; a header claiming far more than
// arrives allocates at most maxBodyPresize; and a push whose body ends
// before its Content-Length still fails with 400, as with io.ReadAll.
func TestReadPushBodyPresize(t *testing.T) {
	body := bytes.Repeat([]byte{7}, 100_000)
	b, err := readBody(bytes.NewReader(body), int64(len(body)))
	if err != nil || !bytes.Equal(b, body) {
		t.Fatalf("exact body: %d bytes, err %v", len(b), err)
	}
	if cap(b) != len(body)+bytes.MinRead {
		t.Errorf("exact body: cap %d, want the declared %d plus %d: the buffer grew", cap(b), len(body), bytes.MinRead)
	}

	b, err = readBody(strings.NewReader("GMWR"), 1<<40)
	if err != nil || string(b) != "GMWR" {
		t.Fatalf("lying header: %q, err %v", b, err)
	}
	if cap(b) > maxBodyPresize+bytes.MinRead {
		t.Errorf("lying header: cap %d, want at most %d", cap(b), maxBodyPresize+bytes.MinRead)
	}

	srv := httptest.NewServer(NewWorker().Handler())
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/fs/push HTTP/1.1\r\nHost: worker\r\nContent-Length: 1000\r\n\r\nGMWR")
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short push body: HTTP %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}

// TestReplyDeclaresContentLength: a reply larger than net/http's 2 KB
// response buffer still travels under its Content-Length, not chunked;
// postWire reads it into one buffer of that size; and a reply cut short
// of its declared length fails as a transient blamed on the worker.
func TestReplyDeclaresContentLength(t *testing.T) {
	payload := bytes.Repeat([]byte{3}, 100_000)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		reply(rw, new(Encoder).Begin().U8(statusOK).Blob(payload))
	}))
	defer srv.Close()
	resp, err := http.Post(srv.URL, "application/x-gmwr", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength <= int64(len(payload)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("reply: Content-Length %d, Transfer-Encoding %v", resp.ContentLength, resp.TransferEncoding)
	}
	b, err := postWire(context.Background(), srv.Client(), srv.Listener.Addr().String(), "/", nil)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(b)
	if d.U8() != statusOK || !bytes.Equal(d.Blob(), payload) || d.Err() != nil {
		t.Fatalf("postWire returned a different reply: %d bytes, %v", len(b), d.Err())
	}
	if int64(len(b)) != resp.ContentLength || cap(b) != len(b)+bytes.MinRead {
		t.Errorf("postWire read %d bytes into cap %d, want one buffer of %d plus %d",
			len(b), cap(b), resp.ContentLength, bytes.MinRead)
	}

	short := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Length", "1000")
		rw.Write([]byte("GMWR"))
		rw.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer short.Close()
	_, err = postWire(context.Background(), short.Client(), short.Listener.Addr().String(), "/", nil)
	if c := retry.Classify(context.Background(), err); c != retry.TransientBlamed {
		t.Fatalf("short reply: %v classified %d, want a blamed transient", err, c)
	}
}
