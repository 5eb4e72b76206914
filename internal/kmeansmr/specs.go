package kmeansmr

import (
	"fmt"

	"gmeansmr/internal/mr"
	"gmeansmr/internal/mrdist"
	"gmeansmr/internal/vec"
)

// This file makes the package's jobs portable across process boundaries:
// every job constructor encodes an mr.JobSpec naming a kind registered
// here and builds its mapper/combiner/reducer factories from that spec's
// payload through the builders below — the same builders a worker process
// runs (internal/mrdist ships the spec; cmd/mrworker links this package so
// the registrations exist on both sides). Payloads use the GMWR encoding
// of docs/wire.md. Payloads carry only what the mappers and reducers
// compute with; the environment (FS, cluster, context, trace, backend)
// never crosses the wire — the worker supplies its own.

// Job kind names registered by this package.
const (
	KindAssign = "kmeans.assign"
	KindMultiK = "kmeans.multik"
	KindEval   = "kmeans.eval"
)

// TagEvalValue is the wire tag of the multi-k evaluation job's partial
// quality sums.
const TagEvalValue = mrdist.TagAppBase // 16

func init() {
	mrdist.RegisterValueCodec(TagEvalValue, mrdist.ValueCodec{
		Encode: func(e *mrdist.Encoder, v mr.Value) bool {
			ev, ok := v.(evalValue)
			if !ok {
				return false
			}
			e.F64(ev.SumD2).F64(ev.SumD).I64(ev.Count)
			return true
		},
		Decode: func(d *mrdist.Decoder) mr.Value {
			return evalValue{SumD2: d.F64(), SumD: d.F64(), Count: d.I64()}
		},
	})
	mrdist.RegisterKind(KindAssign, buildAssign)
	mrdist.RegisterKind(KindMultiK, buildMultiK)
	mrdist.RegisterKind(KindEval, buildEval)
}

// EncodeCenters appends a u32-counted center list.
func EncodeCenters(e *mrdist.Encoder, centers []vec.Vector) {
	e.U32(uint32(len(centers)))
	for _, c := range centers {
		e.Vec(c)
	}
}

// DecodeCenters reads a center list written by EncodeCenters.
func DecodeCenters(d *mrdist.Decoder) []vec.Vector {
	n := int(d.U32())
	if d.Err() != nil || n == 0 {
		return nil
	}
	centers := make([]vec.Vector, 0, min(n, 1<<16))
	for i := 0; i < n; i++ {
		centers = append(centers, d.Vec())
	}
	return centers
}

// assignSpec encodes one classical k-means iteration.
func assignSpec(centers []vec.Vector, mode iterateMode) *mr.JobSpec {
	e := new(mrdist.Encoder).Begin()
	e.U8(byte(mode))
	EncodeCenters(e, centers)
	return &mr.JobSpec{Kind: KindAssign, Payload: e.Bytes()}
}

func buildAssign(payload []byte) (mrdist.JobParts, error) {
	d := mrdist.NewDecoder(payload)
	mode := iterateMode(d.U8())
	centers := DecodeCenters(d)
	if err := d.Err(); err != nil {
		return mrdist.JobParts{}, fmt.Errorf("kmeansmr: bad %s payload: %w", KindAssign, err)
	}
	parts := mrdist.JobParts{NewReducer: func() mr.Reducer { return MergeReducer{} }}
	switch mode {
	case modeInMapper:
		parts.NewPointMapper = func() mr.PointMapper { return &assignMapper{centers: centers} }
		parts.NewCombiner = func() mr.Reducer { return MergeReducer{} }
	case modeNoCombiner:
		parts.NewPointMapper = func() mr.PointMapper { return &emitAssignMapper{centers: centers} }
	default:
		return mrdist.JobParts{}, fmt.Errorf("kmeansmr: unknown assign mode %d", mode)
	}
	return parts, nil
}

// encodeCenterSets appends the per-k center sets in ks order — the order
// the mapper iterates, which fixes its accumulation and emit order.
func encodeCenterSets(e *mrdist.Encoder, centerSets map[int][]vec.Vector, ks []int) {
	e.U32(uint32(len(ks)))
	for _, k := range ks {
		e.U32(uint32(k))
		EncodeCenters(e, centerSets[k])
	}
}

func decodeCenterSets(d *mrdist.Decoder) (map[int][]vec.Vector, []int) {
	n := int(d.U32())
	if d.Err() != nil {
		return nil, nil
	}
	sets := make(map[int][]vec.Vector, n)
	ks := make([]int, 0, min(n, 1<<16))
	for i := 0; i < n; i++ {
		k := int(d.U32())
		sets[k] = DecodeCenters(d)
		if d.Err() != nil {
			return nil, nil
		}
		ks = append(ks, k)
	}
	return sets, ks
}

// multikSpec encodes one multi-k-means iteration.
func multikSpec(centerSets map[int][]vec.Vector, ks []int) *mr.JobSpec {
	e := new(mrdist.Encoder).Begin()
	encodeCenterSets(e, centerSets, ks)
	return &mr.JobSpec{Kind: KindMultiK, Payload: e.Bytes()}
}

func buildMultiK(payload []byte) (mrdist.JobParts, error) {
	d := mrdist.NewDecoder(payload)
	sets, ks := decodeCenterSets(d)
	if err := d.Err(); err != nil {
		return mrdist.JobParts{}, fmt.Errorf("kmeansmr: bad %s payload: %w", KindMultiK, err)
	}
	return mrdist.JobParts{
		NewPointMapper: func() mr.PointMapper {
			return &multiMapper{centerSets: sets, ks: ks}
		},
		NewCombiner: func() mr.Reducer { return MergeReducer{} },
		NewReducer:  func() mr.Reducer { return MergeReducer{} },
	}, nil
}

// evalSpec encodes the multi-k evaluation job.
func evalSpec(centerSets map[int][]vec.Vector, ks []int) *mr.JobSpec {
	e := new(mrdist.Encoder).Begin()
	encodeCenterSets(e, centerSets, ks)
	return &mr.JobSpec{Kind: KindEval, Payload: e.Bytes()}
}

func buildEval(payload []byte) (mrdist.JobParts, error) {
	d := mrdist.NewDecoder(payload)
	sets, ks := decodeCenterSets(d)
	if err := d.Err(); err != nil {
		return mrdist.JobParts{}, fmt.Errorf("kmeansmr: bad %s payload: %w", KindEval, err)
	}
	return mrdist.JobParts{
		NewPointMapper: func() mr.PointMapper {
			return &evalMapper{centerSets: sets, ks: ks}
		},
		NewCombiner: func() mr.Reducer { return evalReducer{} },
		NewReducer:  func() mr.Reducer { return evalReducer{} },
	}, nil
}
