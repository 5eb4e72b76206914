package mrdist

import (
	"errors"
	"fmt"
	"sync"

	"gmeansmr/internal/mr"
)

// JobParts is the user code of one job, built from a JobSpec payload:
// exactly the factory fields of mr.Job, which Build installs.
type JobParts struct {
	NewPointMapper mr.PointMapperFactory
	NewReducer     mr.ReducerFactory
}

// KindBuilder decodes a JobSpec payload into the job's factories. dim is
// the job's point dim: a builder decodes every vector of its payload with
// Decoder.VecDim, so no mapper is handed a vector its split's points
// cannot meet.
type KindBuilder func(payload []byte, dim int) (JobParts, error)

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

// BuildError reports a job no worker can run: it has no spec, its kind is
// not registered, or its payload does not decode against its point dim.
// It is deterministic, so it fails the job at once on either backend,
// with no retry and no worker blamed; on the proc backend a worker's 400
// answer to a task request arrives as one too.
type BuildError struct {
	Job  string
	Kind string
	Err  error
}

// Error implements error.
func (e *BuildError) Error() string {
	return fmt.Sprintf("mrdist: job %q of kind %q does not build: %v", e.Job, e.Kind, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *BuildError) Unwrap() error { return e.Err }

// Build installs on j the mapper and reducer factories that
// j.Spec's registered kind builds from its payload against j.PointDim,
// and returns j. The job constructors and the worker both build their
// jobs through it, so a remote worker runs the same map and reduce code as
// an in-process job by construction, and a spec one side rejects the
// other rejects too. Its error is a *BuildError.
func Build(j *mr.Job) (*mr.Job, error) {
	if j.Spec == nil {
		return nil, &BuildError{Job: j.Name, Err: errors.New("no Spec; only spec-carrying jobs build")}
	}
	kinds.RLock()
	build, ok := kinds.byName[j.Spec.Kind]
	kinds.RUnlock()
	if !ok {
		return nil, &BuildError{Job: j.Name, Kind: j.Spec.Kind, Err: errors.New("unknown job kind (is the registering package linked into this binary?)")}
	}
	parts, err := build(j.Spec.Payload, j.PointDim)
	if err != nil {
		return nil, &BuildError{Job: j.Name, Kind: j.Spec.Kind, Err: err}
	}
	j.NewPointMapper, j.NewReducer = parts.NewPointMapper, parts.NewReducer
	return j, nil
}
