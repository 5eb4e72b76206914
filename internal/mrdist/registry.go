package mrdist

import (
	"fmt"
	"sync"

	"gmeansmr/internal/mr"
)

// JobParts is the user code of one job, built from a JobSpec payload.
// Exactly the factory fields of mr.Job. Job constructors build their own
// factories from the same payload through the same builder the worker
// runs (see Install), so the two sides cannot drift apart — the identity
// the backend equivalence pin rests on.
type JobParts struct {
	NewMapper      mr.MapperFactory
	NewPointMapper mr.PointMapperFactory
	NewCombiner    mr.ReducerFactory
	NewReducer     mr.ReducerFactory
}

// Install sets j's mapper, combiner and reducer factories from p and
// returns j. The job constructors and the worker both build their jobs
// through it from the same KindBuilder output, so a remote worker runs
// the same map and reduce code as an in-process job by construction.
func (p JobParts) Install(j *mr.Job) *mr.Job {
	j.NewMapper, j.NewPointMapper = p.NewMapper, p.NewPointMapper
	j.NewCombiner, j.NewReducer = p.NewCombiner, p.NewReducer
	return j
}

// KindBuilder decodes a JobSpec payload into the job's factories.
type KindBuilder func(payload []byte) (JobParts, error)

var kinds = struct {
	sync.RWMutex
	byName map[string]KindBuilder
}{byName: make(map[string]KindBuilder)}

// RegisterKind installs the builder for a job kind (e.g. "kmeans.assign").
// Call from init in the package that owns the mappers; both the driver
// process and the worker binary must link that package so the two sides
// agree. Duplicate registration panics.
func RegisterKind(kind string, build KindBuilder) {
	if build == nil {
		panic("mrdist: nil kind builder")
	}
	kinds.Lock()
	defer kinds.Unlock()
	if _, dup := kinds.byName[kind]; dup {
		panic(fmt.Sprintf("mrdist: job kind %q registered twice", kind))
	}
	kinds.byName[kind] = build
}

// buildParts resolves a spec into factories.
func buildParts(spec *mr.JobSpec) (JobParts, error) {
	if spec == nil {
		return JobParts{}, fmt.Errorf("mrdist: job has no Spec; only spec-carrying jobs can run on the proc backend")
	}
	kinds.RLock()
	build, ok := kinds.byName[spec.Kind]
	kinds.RUnlock()
	if !ok {
		return JobParts{}, fmt.Errorf("mrdist: unknown job kind %q (is the registering package linked into this binary?)", spec.Kind)
	}
	return build(spec.Payload)
}
