// Package mrdist is the distributed execution backend of the MapReduce
// engine: a master (ProcRunner) that schedules the tasks of an mr.Job onto
// worker subprocesses (re-executions of the master binary, which calls
// MaybeWorker) over HTTP, with on-demand split pushes, shuffle pull,
// straggler speculation and bounded retry around worker death. The
// in-process mr.LocalRunner remains the reference implementation; this
// backend executes the very same mr.Job.ExecMapTask / ExecReduceTask code
// on the same points and merges per-task counters by name, so its
// results are pinned bit-identical to the local backend
// (TestProcBackendMatchesLocalExactly).
//
// The wire protocol — GMWR-framed little-endian messages over plain HTTP
// POST bodies — is specified in docs/wire.md.
package mrdist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"gmeansmr/internal/mr"
	"gmeansmr/internal/vec"
)

// Wire framing constants (docs/wire.md). Every message body starts with
// the 4-byte magic and a format version byte; the remainder is
// message-specific fields in little-endian order, strings and byte blobs
// length-prefixed with u32.
const (
	wireMagic   = "GMWR"
	wireVersion = 8
)

var errWire = errors.New("mrdist: malformed wire message")

// Encoder builds a GMWR message body. The zero value is ready to use after
// Begin; all writes append to an internal buffer returned by Bytes.
type Encoder struct {
	buf []byte
}

// Begin resets the encoder and writes the envelope: magic + version.
func (e *Encoder) Begin() *Encoder {
	e.buf = append(e.buf[:0], wireMagic...)
	e.buf = append(e.buf, wireVersion)
	return e
}

// Bytes returns the encoded message.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v byte) *Encoder {
	e.buf = append(e.buf, v)
	return e
}

// Bool appends a boolean as one byte (0/1).
func (e *Encoder) Bool(v bool) *Encoder {
	if v {
		return e.U8(1)
	}
	return e.U8(0)
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) *Encoder {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	return e
}

// I64 appends a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) *Encoder {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v))
	return e
}

// F64 appends a little-endian IEEE 754 double, preserving the exact bit
// pattern — the codec must round-trip every float bit for bit, NaN
// payloads included, or the backend equivalence pin breaks.
func (e *Encoder) F64(v float64) *Encoder {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
	return e
}

// Str appends a u32 length-prefixed UTF-8 string.
func (e *Encoder) Str(s string) *Encoder {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends a u32 length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) *Encoder {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Vec appends a u32 count followed by that many doubles, bit-exact as
// F64 writes them, in one pass over the grown buffer.
func (e *Encoder) Vec(v vec.Vector) *Encoder {
	e.U32(uint32(len(v)))
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(v))[:off+8*len(v)]
	b := e.buf[off:]
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return e
}

// Decoder consumes a GMWR message body. Errors are sticky: after the first
// malformed field every subsequent read returns a zero value, and Err
// reports the failure once at the end — call sites stay linear.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a message body and verifies the envelope.
func NewDecoder(b []byte) *Decoder {
	d := &Decoder{buf: b}
	if len(b) < len(wireMagic)+1 || string(b[:len(wireMagic)]) != wireMagic {
		d.fail("bad magic")
		return d
	}
	if b[len(wireMagic)] != wireVersion {
		d.fail(fmt.Sprintf("unsupported version %d", b[len(wireMagic)]))
		return d
	}
	d.off = len(wireMagic) + 1
	return d
}

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errWire, msg)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.fail("truncated")
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// F64 reads a little-endian double, bit-exact.
func (d *Decoder) F64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Str reads a u32 length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Blob reads a u32 length-prefixed byte slice (copied).
func (d *Decoder) Blob() []byte {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return nil
	}
	cp := make([]byte, n)
	copy(cp, b)
	return cp
}

// Vec reads a u32 count followed by that many doubles.
func (d *Decoder) Vec() vec.Vector {
	n := int(d.U32())
	if d.err != nil || n == 0 {
		// Distinguish "decoded an empty vector" from "decode failed": both
		// return nil, but the sticky error reports the latter.
		return nil
	}
	// Bound the count by the bytes left before multiplying: n*8 can
	// overflow a 32-bit int, and a count past 2^31 decodes negative there.
	if n < 0 || n > (len(d.buf)-d.off)/8 {
		d.fail("truncated vector")
		return nil
	}
	b := d.take(8 * n)
	v := make(vec.Vector, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// VecDim reads a Vec and fails the decoder unless it holds exactly dim
// doubles: the one check that keeps a payload's vectors at its job's
// point dim.
func (d *Decoder) VecDim(dim int) vec.Vector {
	v := d.Vec()
	if d.err == nil && len(v) != dim {
		d.fail(fmt.Sprintf("vector of dim %d in a job of dim %d", len(v), dim))
		return nil
	}
	return v
}

// Value tags. 1–6 cover the engine's built-in mr.Value types; tags ≥ 16
// belong to application packages, registered via RegisterValueCodec.
const (
	tagFloat64       = 1
	tagInt64         = 2
	tagBool          = 3
	tagPoint         = 4
	tagWeightedPoint = 5
	tagADDecision    = 6

	// TagAppBase is the first tag available to application value codecs.
	TagAppBase = 16
)

// ValueCodec serializes one application-defined mr.Value type. Encode
// reports whether v is the codec's type (and if so appends its payload);
// Decode reads the payload back.
type ValueCodec struct {
	Encode func(e *Encoder, v mr.Value) bool
	Decode func(d *Decoder) mr.Value
}

var valueCodecs = struct {
	sync.RWMutex
	byTag map[byte]ValueCodec
}{byTag: make(map[byte]ValueCodec)}

// RegisterValueCodec installs the codec for an application value tag
// (≥ TagAppBase). Call from init; duplicate or reserved tags panic.
func RegisterValueCodec(tag byte, c ValueCodec) {
	if tag < TagAppBase {
		panic(fmt.Sprintf("mrdist: value tag %d is reserved for built-ins", tag))
	}
	if c.Encode == nil || c.Decode == nil {
		panic("mrdist: value codec needs both Encode and Decode")
	}
	valueCodecs.Lock()
	defer valueCodecs.Unlock()
	if _, dup := valueCodecs.byTag[tag]; dup {
		panic(fmt.Sprintf("mrdist: value tag %d registered twice", tag))
	}
	valueCodecs.byTag[tag] = c
}

// EncodeValue appends one tagged mr.Value.
func (e *Encoder) EncodeValue(v mr.Value) error {
	switch x := v.(type) {
	case mr.Float64Value:
		e.U8(tagFloat64).F64(float64(x))
	case mr.Int64Value:
		e.U8(tagInt64).I64(int64(x))
	case mr.BoolValue:
		e.U8(tagBool).Bool(bool(x))
	case mr.PointValue:
		e.U8(tagPoint).Vec(x.Coords)
	case mr.WeightedPointValue:
		e.U8(tagWeightedPoint).Vec(x.Sum).I64(x.Count)
	case mr.ADDecisionValue:
		e.U8(tagADDecision).F64(x.A2Star).I64(x.N).Bool(x.Normal)
	default:
		valueCodecs.RLock()
		defer valueCodecs.RUnlock()
		for tag, c := range valueCodecs.byTag {
			mark := len(e.buf)
			e.U8(tag)
			if c.Encode(e, v) {
				return nil
			}
			e.buf = e.buf[:mark]
		}
		return fmt.Errorf("mrdist: no wire codec for value type %T", v)
	}
	return nil
}

// DecodeValue reads one tagged mr.Value.
func (d *Decoder) DecodeValue() mr.Value {
	switch tag := d.U8(); tag {
	case tagFloat64:
		return mr.Float64Value(d.F64())
	case tagInt64:
		return mr.Int64Value(d.I64())
	case tagBool:
		return mr.BoolValue(d.Bool())
	case tagPoint:
		return mr.PointValue{Coords: d.Vec()}
	case tagWeightedPoint:
		return mr.WeightedPointValue{WeightedPoint: vec.WeightedPoint{Sum: d.Vec(), Count: d.I64()}}
	case tagADDecision:
		return mr.ADDecisionValue{A2Star: d.F64(), N: d.I64(), Normal: d.Bool()}
	default:
		valueCodecs.RLock()
		c, ok := valueCodecs.byTag[tag]
		valueCodecs.RUnlock()
		if !ok {
			d.fail(fmt.Sprintf("unknown value tag %d", tag))
			return nil
		}
		return c.Decode(d)
	}
}

// KVs appends a u32 count followed by (key, tagged value) pairs.
func (e *Encoder) KVs(kvs []mr.KV) error {
	e.U32(uint32(len(kvs)))
	for _, kv := range kvs {
		e.I64(kv.Key)
		if err := e.EncodeValue(kv.Value); err != nil {
			return err
		}
	}
	return nil
}

// KVs reads a u32-counted list of (key, tagged value) pairs. A decoded
// empty list is nil, matching what a run that emitted nothing looks like
// on the producing side.
func (d *Decoder) KVs() []mr.KV {
	n := int(d.U32())
	if d.err != nil || n == 0 {
		return nil
	}
	kvs := make([]mr.KV, 0, min(n, 1<<16))
	for i := 0; i < n; i++ {
		k := d.I64()
		v := d.DecodeValue()
		if d.err != nil {
			return nil
		}
		kvs = append(kvs, mr.KV{Key: k, Value: v})
	}
	return kvs
}

// Counters appends a task's counter deltas as name-sorted (string, i64)
// pairs, which the master adds into the job's counters by name.
// Zero-valued touched counters are included — Hadoop counters exist from
// first touch, and the merged set must list them for the equivalence pin
// to hold.
func (e *Encoder) Counters(c *mr.Counters) {
	sorted := c.Sorted()
	e.U32(uint32(len(sorted)))
	for _, cv := range sorted {
		e.Str(cv.Name).I64(cv.Value)
	}
}

// MergeCounters reads counter pairs and adds them into dst by name.
// Returns false (leaving the sticky error set) on malformed input.
func (d *Decoder) MergeCounters(dst *mr.Counters) bool {
	n := int(d.U32())
	for i := 0; i < n; i++ {
		name := d.Str()
		v := d.I64()
		if d.err != nil {
			return false
		}
		dst.Add(name, v)
	}
	return d.err == nil
}
