package mrdist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/mr"
)

// blockedTransport fails every outbound request instantly, so fuzzed
// reduce frames whose map-output locations mutate into reachable-looking
// addresses can never touch the network.
type blockedTransport struct{}

func (blockedTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("network blocked under fuzzing")
}

// fuzzWorker returns a worker that already holds the split fuzzMapFrame
// names, so fuzzed map frames get past the split lookup.
func fuzzWorker() *Worker {
	w := NewWorker()
	w.addr = "127.0.0.1:1"
	w.client = &http.Client{Transport: blockedTransport{}}
	w.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/fs/push", bytes.NewReader(fuzzPushFrame())))
	return w
}

// fuzzTaskPrefix encodes the common taskRequest prefix with an
// unregistered kind: deep enough to drive every decode path, while
// Build rejects execution (fuzz inputs must not run real tasks).
func fuzzTaskPrefix(e *Encoder) {
	e.Str("job-1").Str("fuzz").Str("fuzz.nokind").Blob([]byte{1, 2, 3})
	e.U32(2).U32(2).U32(2) // cluster: nodes, map slots, reduce slots
	e.U32(2).U32(2)        // point dim, reducers
}

func fuzzMapFrame() []byte {
	e := new(Encoder).Begin()
	fuzzTaskPrefix(e)
	e.U32(0) // task id
	fuzzSplitKey(e)
	return e.Bytes()
}

// fuzzSplitKey encodes the split both the push and the map frame name:
// path, version, index, start, end.
func fuzzSplitKey(e *Encoder) {
	e.Str("/nums.txt").I64(1).U32(0).I64(0).I64(128)
}

func fuzzPushFrame() []byte {
	e := new(Encoder).Begin()
	fuzzSplitKey(e)
	e.U32(2).I64(12) // dim, logical text bytes
	e.Vec([]float64{1, 2, 3, 4})
	return e.Bytes()
}

func fuzzReduceFrame() []byte {
	e := new(Encoder).Begin()
	fuzzTaskPrefix(e)
	e.U32(0)                               // partition
	e.U32(2)                               // map task count
	e.Str("127.0.0.1:1").Str("10.0.0.9:1") // self + blocked peer
	return e.Bytes()
}

// kindMapFrame is a map-task request for task 0 of spec's job on the
// pushed split (dim 2) with the given node and reducer counts. Unlike the
// frames above it names a registered kind — this test binary links
// internal/core and internal/kmeansmr through the package's external
// tests — so the corpus drives real payload decoders and mappers.
func kindMapFrame(spec mr.JobSpec, nodes, reducers uint32) []byte {
	e := new(Encoder).Begin()
	e.Str("job-1").Str("fuzz").Str(spec.Kind).Blob(spec.Payload)
	e.U32(nodes).U32(2).U32(2) // cluster: nodes, map slots, reduce slots
	e.U32(2).U32(reducers)     // point dim, reducers
	e.U32(0)                   // task id
	fuzzSplitKey(e)
	return e.Bytes()
}

// kindSpecs returns one spec of each registered point-job kind whose
// vectors have the given dim, hand-encoded in each kind's payload layout
// (docs/wire.md). At dim 2 every one builds for the pushed split; at any
// other dim every one must fail its build. The test kind keeps its
// parents at dim 2, so only its split vector is off.
func kindSpecs(dim int) []mr.JobSpec {
	sets := specPayload(func(e *Encoder) { e.U32(1).U32(2).U32(2).Vec(specVec(dim, 1)).Vec(specVec(dim, 3)) }) // k = 2
	return []mr.JobSpec{
		{Kind: "kmeans.assign", Payload: specPayload(func(e *Encoder) { e.U32(2).Vec(specVec(dim, 1)).Vec(specVec(dim, 3)) })},
		{Kind: "kmeans.multik", Payload: sets},
		{Kind: "kmeans.eval", Payload: sets},
		testKindSpec(dim, .0001),
		lastPassKindSpec(dim, 1),
	}
}

// hostileSpecs returns dim-2 specs whose payloads decode but carry a
// parameter no task can run with: a test significance level outside
// (0, 1) and a last pass with more found centers than centers. Each must
// fail its build like a mismatched dim does.
func hostileSpecs() []mr.JobSpec {
	return []mr.JobSpec{
		testKindSpec(2, 0),
		testKindSpec(2, -0.5),
		testKindSpec(2, math.NaN()),
		lastPassKindSpec(2, 5),
	}
}

// specVec returns the dim-long vector x, x+1, x+2, ...
func specVec(dim int, x float64) []float64 {
	c := make([]float64, dim)
	for i := range c {
		c[i] = x + float64(i)
	}
	return c
}

func specPayload(enc func(e *Encoder)) []byte {
	e := new(Encoder).Begin()
	enc(e)
	return e.Bytes()
}

// testKindSpec is a gmeans.test spec at significance level alpha whose
// one split vector has the given dim.
func testKindSpec(dim int, alpha float64) mr.JobSpec {
	return mr.JobSpec{Kind: "gmeans.test", Payload: specPayload(func(e *Encoder) {
		e.F64(alpha).I64(3).U32(1).U32(0) // alpha, seed, round, found count
		e.U32(1).I64(-1)                  // one sampling threshold: every point
		e.U32(1).Vec([]float64{1, 2})     // parents
		e.U32(1).Vec(specVec(dim, 1))     // split vectors
	})}
}

// lastPassKindSpec is a gmeans.lastpass spec over two centers of the
// given dim, found of which are frozen.
func lastPassKindSpec(dim int, found uint32) mr.JobSpec {
	return mr.JobSpec{Kind: "gmeans.lastpass", Payload: specPayload(func(e *Encoder) {
		e.I64(3).U32(found) // power-iteration seed, found count
		e.U32(2).Vec(specVec(dim, 1)).Vec(specVec(dim, 3))
	})}
}

// TestMapRunsHaveDistinctKeys pins what lets the engine do without a
// combine stage: every kind's mapper combines in-mapper, so each
// partition's run of one map task holds each key once. gmeans.test is
// the exception by design: it emits one projection per sampled point, and
// that its runs repeat keys on this split shows the split would catch a
// per-point mapper. A mapper that emits per point and counts on a
// combiner fails here instead of silently multiplying shuffle bytes.
func TestMapRunsHaveDistinctKeys(t *testing.T) {
	var text strings.Builder
	for i := range 24 { // two groups, around (1, 2) and (3, 4)
		c, eps := float64(2*(i%2)), 0.01*float64(i)
		fmt.Fprintf(&text, "%g %g\n", 1+c+eps, 2+c-eps)
	}
	fs := dfs.New(0)
	fs.Create("/pts.txt", []byte(text.String()))
	splits, err := fs.Splits("/pts.txt")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := fs.OpenSplitPoints(splits[0], 2)
	if err != nil {
		t.Fatal(err)
	}

	specs := kindSpecs(2)
	covered := make(map[string]bool, len(specs))
	for _, spec := range specs {
		covered[spec.Kind] = true
	}
	kinds.RLock()
	for kind := range kinds.byName {
		// This package's own tests register their kinds as "mrdist.*".
		if !covered[kind] && !strings.HasPrefix(kind, "mrdist.") {
			t.Errorf("registered kind %s has no spec in kindSpecs", kind)
		}
	}
	kinds.RUnlock()

	for _, spec := range specs {
		j, err := Build(&mr.Job{Name: "distinct-keys", Cluster: mr.DefaultCluster(), PointDim: 2, Spec: &spec})
		if err != nil {
			t.Fatal(err)
		}
		runs, err := j.ExecMapTask(0, ps, 3, mr.DefaultPartitioner, mr.NewCounters())
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		var records, repeats int
		for _, run := range runs {
			records += len(run)
			for i := 1; i < len(run); i++ {
				if run[i].Key == run[i-1].Key {
					repeats++
				}
			}
		}
		switch {
		case records == 0:
			t.Errorf("%s: the map task emitted nothing", spec.Kind)
		case spec.Kind == "gmeans.test" && repeats == 0:
			t.Errorf("%s: no key repeats; the split no longer shows a per-point mapper", spec.Kind)
		case spec.Kind != "gmeans.test" && repeats > 0:
			t.Errorf("%s: %d repeated keys in %d records; its mapper does not combine", spec.Kind, repeats, records)
		}
	}
}

// TestFuzzLastPassFrameRuns checks that the corpus's gmeans.lastpass frame
// runs its map task (a rejected frame would leave the kind unfuzzed), and
// that the same task request with no nodes or a reducer count outside
// [1, maxReducers] answers 400 before it runs: a map task divides its id
// by the node count and allocates one run per reducer.
func TestFuzzLastPassFrameRuns(t *testing.T) {
	post := func(frame []byte) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		fuzzWorker().Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/task/map", bytes.NewReader(frame)))
		return rr
	}
	lastPass := kindSpecs(2)[4]
	rr := post(kindMapFrame(lastPass, 2, 2))
	if st := NewDecoder(rr.Body.Bytes()).U8(); rr.Code != http.StatusOK || st != statusOK {
		t.Fatalf("HTTP %d, status %d: %s", rr.Code, st, rr.Body.String())
	}
	for _, c := range []struct{ nodes, reducers uint32 }{{0, 2}, {2, 0}, {2, maxReducers + 1}} {
		if rr := post(kindMapFrame(lastPass, c.nodes, c.reducers)); rr.Code != http.StatusBadRequest {
			t.Errorf("%d nodes, %d reducers: HTTP %d, want 400", c.nodes, c.reducers, rr.Code)
		}
	}
}

// TestMismatchedDimFailsTyped checks the one dim check every kind shares,
// and the payload checks of hostileSpecs. A map frame whose vectors have
// another dim than its job, or whose parameters no task can run with,
// answers 400 through Worker.Handler, where the kind's good frame runs.
// Build rejects the spec with a *BuildError on the master, where both
// backends build their jobs. And a worker handed the frame anyway fails
// the proc job with a *BuildError carrying the same cause, on the first
// attempt: no retry, no breaker opened.
func TestMismatchedDimFailsTyped(t *testing.T) {
	fs := dfs.New(0)
	fs.Create("/pts.txt", []byte("1 2\n3 4\n5 6\n"))
	runner := NewProcRunner(Options{})
	defer runner.Close()
	reg := runner.Registry()
	newJob := func(spec mr.JobSpec, runner mr.TaskRunner) *mr.Job {
		return &mr.Job{Name: "dim-" + spec.Kind, FS: fs, Cluster: mr.DefaultCluster().WithNodes(2),
			Input: "/pts.txt", PointDim: 2, Runner: runner, Spec: &spec}
	}
	good := make(map[string]mr.JobSpec)
	for _, spec := range kindSpecs(2) {
		good[spec.Kind] = spec
	}
	for _, bad := range append(kindSpecs(3), hostileSpecs()...) {
		t.Run(bad.Kind, func(t *testing.T) {
			for _, c := range []struct {
				spec mr.JobSpec
				code int
			}{{good[bad.Kind], http.StatusOK}, {bad, http.StatusBadRequest}} {
				rr := httptest.NewRecorder()
				fuzzWorker().Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/v1/task/map", bytes.NewReader(kindMapFrame(c.spec, 2, 2))))
				if rr.Code != c.code || (c.code == http.StatusOK && NewDecoder(rr.Body.Bytes()).U8() != statusOK) {
					t.Fatalf("HTTP %d, want %d: %s", rr.Code, c.code, rr.Body.String())
				}
			}

			var local *BuildError
			for _, r := range []mr.TaskRunner{nil, runner} {
				_, err := Build(newJob(bad, r))
				var be *BuildError
				if !errors.As(err, &be) || be.Kind != bad.Kind {
					t.Fatalf("runner %T: Build error = %v, want a *BuildError of kind %s", r, err, bad.Kind)
				}
				local = be
			}

			j, err := Build(newJob(good[bad.Kind], runner))
			if err != nil {
				t.Fatal(err)
			}
			j.Spec = &bad
			dispatched := reg.Counter(MetricTasksDispatched).Value()
			_, err = j.Run()
			var be *BuildError
			if !errors.As(err, &be) || be.Kind != bad.Kind || !strings.Contains(err.Error(), local.Err.Error()) {
				t.Fatalf("proc error = %v, want a *BuildError saying %q", err, local.Err)
			}
			if n := reg.Counter(MetricTasksDispatched).Value() - dispatched; n != 1 {
				t.Errorf("%d map tasks dispatched for one split", n)
			}
		})
	}
	if n := reg.Counter(MetricTaskRetries).Value(); n != 0 {
		t.Errorf("%d retries of a frame no worker can build", n)
	}
	if n := reg.Counter(MetricBreakerOpens).Value(); n != 0 {
		t.Errorf("%d breakers opened on healthy workers", n)
	}
}

func fuzzShuffleFrame() []byte {
	return new(Encoder).Begin().
		Str("job-1").U32(0).U32(2).U32(0).U32(1).Bytes()
}

// FuzzWorkerEndpoints throws corrupt and truncated GMWR frames at the
// worker's push, task and shuffle endpoints. The contract: no panic, no
// unbounded allocation, and every 200 response is itself a well-formed
// GMWR frame (anything else must be an HTTP error status).
func FuzzWorkerEndpoints(f *testing.F) {
	paths := []string{"/v1/task/map", "/v1/task/reduce", "/v1/shuffle", "/v1/fs/push"}
	addFrame := func(i int, frame []byte) {
		f.Add(i, frame)
		// Truncations, including mid-envelope and mid-field cuts.
		for _, cut := range []int{0, 3, 5, 9, len(frame) / 2, len(frame) - 1} {
			f.Add(i, frame[:cut])
		}
		// Bit-rot past the envelope (the wire_test corruption idiom).
		cor := append([]byte(nil), frame...)
		for j := 5; j < len(cor); j += 7 {
			cor[j] ^= 0xA5
		}
		f.Add(i, cor)
	}
	for i, frame := range [][]byte{fuzzMapFrame(), fuzzReduceFrame(), fuzzShuffleFrame(), fuzzPushFrame()} {
		addFrame(i, frame)
	}
	f.Add(0, []byte(nil))
	f.Add(0, []byte("GMW"))
	f.Add(1, []byte("XXXX\x01rest"))
	f.Add(2, []byte("GMWR\x07rest")) // the retired version
	// A map frame of every kind at the split's dim, and one whose vectors
	// have another dim, so the fuzzer mutates every kind's dim fields.
	for _, dim := range []int{2, 3} {
		for _, spec := range kindSpecs(dim) {
			addFrame(0, kindMapFrame(spec, 2, 2))
		}
	}
	// And the payloads that decode but must not build.
	for _, spec := range hostileSpecs() {
		addFrame(0, kindMapFrame(spec, 2, 2))
	}

	f.Fuzz(func(t *testing.T, which int, data []byte) {
		if len(data) > 1<<16 {
			return // bound per-iteration work
		}
		path := paths[((which%len(paths))+len(paths))%len(paths)]
		h := fuzzWorker().Handler()
		req := httptest.NewRequest("POST", path, bytes.NewReader(data))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code == http.StatusOK {
			if err := NewDecoder(rr.Body.Bytes()).Err(); err != nil {
				t.Fatalf("%s returned 200 with a malformed frame: %v", path, err)
			}
		}
	})
}
