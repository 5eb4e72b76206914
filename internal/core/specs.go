package core

import (
	"fmt"

	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/mr"
	"gmeansmr/internal/mrdist"
	"gmeansmr/internal/vec"
)

// This file registers the G-means jobs with the distributed backend: each
// job constructor encodes an mr.JobSpec and builds its factories from the
// spec's payload through the builders below — the same builders a worker
// process runs. The worker is a re-execution of the master's binary, so
// the kind names resolve on both sides. Payloads use the GMWR encoding of
// docs/wire.md.

// Job kind names registered by this package.
const (
	KindTest = "gmeans.test"
	KindPCA  = "gmeans.pca"
)

// TagCovValue is the wire tag of the PCA candidate job's covariance
// statistics.
const TagCovValue = mrdist.TagAppBase + 1 // 17

func init() {
	mrdist.RegisterValueCodec(TagCovValue, mrdist.ValueCodec{
		Encode: func(e *mrdist.Encoder, v mr.Value) bool {
			cv, ok := v.(covValue)
			if !ok {
				return false
			}
			e.Vec(cv.Sum).Vec(vec.Vector(cv.Outer)).I64(cv.Count)
			return true
		},
		Decode: func(d *mrdist.Decoder) mr.Value {
			return covValue{Sum: d.Vec(), Outer: []float64(d.Vec()), Count: d.I64()}
		},
	})
	mrdist.RegisterKind(KindTest, buildTest)
	mrdist.RegisterKind(KindPCA, buildPCA)
}

// testSpec encodes the normality-test job: the significance level, the
// sample's seed and round, the per-cluster sampling thresholds, and the
// per-cluster geometry (parents plus the split vector of each active
// cluster).
func testSpec(cfg Config, parents []vec.Vector, foundCount int, vectors []vec.Vector, sizes []int64, round int) *mr.JobSpec {
	e := new(mrdist.Encoder).Begin()
	e.F64(cfg.Alpha).I64(cfg.Seed).U32(uint32(round)).U32(uint32(foundCount))
	e.U32(uint32(len(sizes)))
	for _, n := range sizes {
		e.I64(int64(sampleThreshold(n)))
	}
	kmeansmr.EncodeCenters(e, parents)
	kmeansmr.EncodeCenters(e, vectors)
	return &mr.JobSpec{Kind: KindTest, Payload: e.Bytes()}
}

func buildTest(payload []byte) (mrdist.JobParts, error) {
	d := mrdist.NewDecoder(payload)
	alpha := d.F64()
	seed := d.I64()
	round := int(d.U32())
	foundCount := int(d.U32())
	n := int(d.U32())
	thresholds := make([]uint64, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		thresholds = append(thresholds, uint64(d.I64()))
	}
	parents := kmeansmr.DecodeCenters(d)
	vectors := kmeansmr.DecodeCenters(d)
	if err := d.Err(); err != nil {
		return mrdist.JobParts{}, fmt.Errorf("core: bad %s payload: %w", KindTest, err)
	}
	if len(thresholds) != len(vectors) || len(parents) != foundCount+len(vectors) {
		return mrdist.JobParts{}, fmt.Errorf("core: bad %s payload: %d thresholds, %d parents for %d found and %d split vectors",
			KindTest, len(thresholds), len(parents), foundCount, len(vectors))
	}
	// Each split vector's norm and each cluster's sample key once per job,
	// not once per point.
	axes := make([]vec.Axis, len(vectors))
	keys := make([]uint64, len(vectors))
	for i, v := range vectors {
		axes[i] = vec.NewAxis(v)
		keys[i] = sampleKey(seed, round, i)
	}
	return mrdist.JobParts{
		NewPointMapper: func() mr.PointMapper {
			return &testMapper{parents: parents, foundCount: foundCount, axes: axes,
				keys: keys, thresholds: thresholds}
		},
		NewReducer: func() mr.Reducer { return &testReducer{alpha: alpha} },
	}, nil
}

// pcaSpec encodes the PCA candidate-selection job: the power-iteration
// seed, the number of frozen centers leading the list (whose candidates
// the driver never reads) and the centers.
func pcaSpec(cfg Config, centers []vec.Vector, foundCount, round int) *mr.JobSpec {
	e := new(mrdist.Encoder).Begin()
	e.I64(cfg.Seed + int64(round)).U32(uint32(foundCount))
	kmeansmr.EncodeCenters(e, centers)
	return &mr.JobSpec{Kind: KindPCA, Payload: e.Bytes()}
}

func buildPCA(payload []byte) (mrdist.JobParts, error) {
	d := mrdist.NewDecoder(payload)
	seed := d.I64()
	foundCount := int(d.U32())
	centers := kmeansmr.DecodeCenters(d)
	if err := d.Err(); err != nil {
		return mrdist.JobParts{}, fmt.Errorf("core: bad %s payload: %w", KindPCA, err)
	}
	return mrdist.JobParts{
		NewPointMapper: func() mr.PointMapper {
			return &pcaMapper{centers: centers, foundCount: foundCount}
		},
		NewReducer: func() mr.Reducer { return &pcaReducer{seed: seed} },
	}, nil
}
