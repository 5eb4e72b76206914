package mr

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/vec"
)

// testCluster returns a small deterministic-enough cluster for unit tests.
func testCluster() Cluster {
	return DefaultCluster().WithNodes(2)
}

// columnsMapper adapts a plain function to PointMapper for test jobs
// that need no per-task state.
type columnsMapper func(ctx *TaskContext, cols *dfs.ColumnarSplit, emit Emitter) error

func (columnsMapper) Setup(*TaskContext) error { return nil }

func (f columnsMapper) MapColumns(ctx *TaskContext, cols *dfs.ColumnarSplit, emit Emitter) error {
	return f(ctx, cols, emit)
}

func (columnsMapper) Close(*TaskContext, Emitter) error { return nil }

// countTokens emits (token, 1) for every coordinate of the split.
func countTokens(_ *TaskContext, cols *dfs.ColumnarSplit, emit Emitter) error {
	for d := 0; d < cols.Dim(); d++ {
		for _, x := range cols.Col(d) {
			emit.Emit(int64(x), Int64Value(1))
		}
	}
	return nil
}

// wordCountJob builds the canonical MapReduce smoke test: tokens are
// non-negative ints stored as 1-dim points; the job counts occurrences
// per token.
func wordCountJob(fs *dfs.FS, input string) *Job {
	return &Job{
		Name:           "wordcount",
		FS:             fs,
		Cluster:        testCluster(),
		Input:          input,
		PointDim:       1,
		NewPointMapper: func() PointMapper { return columnsMapper(countTokens) },
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key int64, values []Value, emit Emitter) error {
				var sum int64
				for _, v := range values {
					sum += int64(v.(Int64Value))
				}
				emit.Emit(key, Int64Value(sum))
				return nil
			})
		},
	}
}

// writeTokens stores tokens as a 1-dim point file, one token per record.
func writeTokens(fs *dfs.FS, path string, tokens []int) {
	var buf strings.Builder
	for _, tok := range tokens {
		buf.WriteString(strconv.Itoa(tok))
		buf.WriteByte('\n')
	}
	fs.Create(path, []byte(buf.String()))
}

func countsFromResult(res *Result) map[int64]int64 {
	out := make(map[int64]int64)
	for _, kv := range res.Output {
		out[kv.Key] += int64(kv.Value.(Int64Value))
	}
	return out
}

func TestWordCountBasic(t *testing.T) {
	fs := dfs.New(16) // tiny splits → many map tasks
	tokens := []int{1, 2, 3, 1, 2, 1, 7, 7, 7, 7}
	writeTokens(fs, "/in", tokens)
	res, err := wordCountJob(fs, "/in").Run()
	if err != nil {
		t.Fatal(err)
	}
	got := countsFromResult(res)
	want := map[int64]int64{1: 3, 2: 2, 3: 1, 7: 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("count[%d] = %d, want %d", k, got[k], v)
		}
	}
	if res.MapTasks < 2 {
		t.Errorf("expected multiple map tasks with 16-byte splits, got %d", res.MapTasks)
	}
}

func TestEngineCounters(t *testing.T) {
	fs := dfs.New(0)
	writeTokens(fs, "/in", []int{1, 1, 2})
	res, err := wordCountJob(fs, "/in").Run()
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if got := c.Get(CounterMapInputRecords); got != 3 {
		t.Errorf("map input records = %d, want 3 points", got)
	}
	if got := c.Get(CounterMapOutputRecords); got != 3 {
		t.Errorf("map output records = %d, want 3", got)
	}
	if got := c.Get(CounterReduceInputGroups); got != 2 {
		t.Errorf("reduce groups = %d, want 2", got)
	}
	if got := c.Get(CounterReduceOutput); got != 2 {
		t.Errorf("reduce output = %d, want 2", got)
	}
	if got := c.Get(CounterShuffleRecords); got != 3 {
		t.Errorf("shuffle records = %d, want all 3 map output records", got)
	}
	if got := c.Get(CounterShuffleBytes); got != 3*16 {
		t.Errorf("shuffle bytes = %d, want 48 (3 records × 8B key + 8B value)", got)
	}
	for _, name := range []string{CounterCombineInput, CounterCombineOutput} {
		if _, ok := c.Snapshot()[name]; ok {
			t.Errorf("%s ticked; the engine has no combine stage", name)
		}
	}
}

func TestDatasetReadAccounting(t *testing.T) {
	fs := dfs.New(0)
	writeTokens(fs, "/in", []int{1, 2, 3})
	fs.ResetCounters()
	if _, err := wordCountJob(fs, "/in").Run(); err != nil {
		t.Fatal(err)
	}
	if got := fs.DatasetReads(); got != 1 {
		t.Errorf("DatasetReads = %d, want exactly 1 per job", got)
	}
}

// TestMapperErrorFailsJob: a mapper error and an undecodable input record
// both fail the job as a map-task error.
func TestMapperErrorFailsJob(t *testing.T) {
	fs := dfs.New(0)
	writeTokens(fs, "/in", []int{1})
	fs.Create("/bad", []byte("not-a-number\n"))
	failing := wordCountJob(fs, "/in")
	failing.NewPointMapper = func() PointMapper {
		return columnsMapper(func(*TaskContext, *dfs.ColumnarSplit, Emitter) error {
			return errors.New("map boom")
		})
	}
	for name, job := range map[string]*Job{
		"mapper error": failing,
		"bad record":   wordCountJob(fs, "/bad"),
	} {
		_, err := job.Run()
		if err == nil {
			t.Fatalf("%s: expected job failure", name)
		}
		var te *TaskError
		if !errors.As(err, &te) {
			t.Fatalf("%s: err = %T, want *TaskError", name, err)
		}
		if te.Kind != MapTask {
			t.Errorf("%s: failing kind = %s, want map", name, te.Kind)
		}
	}
}

func TestNumReducersControlsPartitions(t *testing.T) {
	fs := dfs.New(0)
	writeTokens(fs, "/in", []int{0, 1, 2, 3, 4, 5, 6, 7})
	job := wordCountJob(fs, "/in")
	job.NumReducers = 3
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ReduceTasks != 3 {
		t.Errorf("ReduceTasks = %d, want 3", res.ReduceTasks)
	}
	if got := countsFromResult(res); len(got) != 8 {
		t.Errorf("keys = %d, want 8", len(got))
	}
}

func TestDefaultPartitionerNegativeKeys(t *testing.T) {
	for _, k := range []int64{-1, -17, -1 << 62, 0, 5, 1 << 62} {
		p := DefaultPartitioner(k, 7)
		if p < 0 || p >= 7 {
			t.Errorf("partition(%d) = %d out of range", k, p)
		}
	}
}

func TestMapperSetupCloseLifecycle(t *testing.T) {
	fs := dfs.New(8) // several splits
	fs.Create("/in", []byte("1 1\n2 2\n3 3\n"))
	var mu = make(chan string, 100)
	job := &Job{
		Name:     "lifecycle",
		FS:       fs,
		Cluster:  testCluster(),
		Input:    "/in",
		PointDim: 2,
		NewPointMapper: func() PointMapper {
			return &lifecycleMapper{events: mu}
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key int64, values []Value, emit Emitter) error {
				emit.Emit(key, Int64Value(len(values)))
				return nil
			})
		},
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	close(mu)
	var setups, closes int
	for ev := range mu {
		switch ev {
		case "setup":
			setups++
		case "close":
			closes++
		}
	}
	if setups != res.MapTasks || closes != res.MapTasks {
		t.Errorf("setups=%d closes=%d, want %d each", setups, closes, res.MapTasks)
	}
	// Close-emitted trailing pair must be present: key 99 appears once per
	// map task.
	got := countsFromResult(res)
	if got[99] != int64(res.MapTasks) {
		t.Errorf("close-emitted key 99 count = %d, want %d", got[99], res.MapTasks)
	}
}

type lifecycleMapper struct {
	events chan string
}

func (m *lifecycleMapper) Setup(*TaskContext) error {
	m.events <- "setup"
	return nil
}

func (m *lifecycleMapper) MapColumns(ctx *TaskContext, cols *dfs.ColumnarSplit, emit Emitter) error {
	return countTokens(ctx, cols, emit)
}

func (m *lifecycleMapper) Close(ctx *TaskContext, emit Emitter) error {
	m.events <- "close"
	emit.Emit(99, Int64Value(1))
	return nil
}

func TestJobValidation(t *testing.T) {
	fs := dfs.New(0)
	fs.Create("/in", []byte("1\n"))
	base := wordCountJob(fs, "/in")

	bad := *base
	bad.FS = nil
	if _, err := bad.Run(); err == nil {
		t.Error("nil FS accepted")
	}
	bad = *base
	bad.Input = ""
	if _, err := bad.Run(); err == nil {
		t.Error("empty input accepted")
	}
	bad = *base
	bad.NewPointMapper = nil
	if _, err := bad.Run(); err == nil {
		t.Error("nil mapper accepted")
	}
	bad = *base
	bad.NewReducer = nil
	if _, err := bad.Run(); err == nil {
		t.Error("nil reducer accepted")
	}
	bad = *base
	bad.Cluster.Nodes = 0
	if _, err := bad.Run(); err == nil {
		t.Error("zero-node cluster accepted")
	}
	bad = *base
	bad.Input = "/missing"
	if _, err := bad.Run(); err == nil {
		t.Error("missing input accepted")
	}
}

func TestClusterValidateAndDerived(t *testing.T) {
	c := DefaultCluster()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.MapCapacity() != c.Nodes*c.MapSlotsPerNode {
		t.Error("MapCapacity mismatch")
	}
	if c.ReduceCapacity() != c.Nodes*c.ReduceSlotsPerNode {
		t.Error("ReduceCapacity mismatch")
	}
	if c2 := c.WithNodes(12); c2.Nodes != 12 || c.Nodes != 4 {
		t.Error("WithNodes should copy")
	}
	for _, bad := range []Cluster{
		{Nodes: 0, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1},
		{Nodes: 1, MapSlotsPerNode: 0, ReduceSlotsPerNode: 1},
		{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 0},
		{Nodes: -1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid cluster accepted: %+v", bad)
		}
	}
}

func TestCountersBasics(t *testing.T) {
	c := NewCounters()
	c.Add("a", 2)
	c.Add("a", 3)
	c.Add("b", 1)
	if c.Get("a") != 5 || c.Get("b") != 1 || c.Get("zzz") != 0 {
		t.Error("counter arithmetic wrong")
	}
	snap := c.Snapshot()
	snap["a"] = 99
	if c.Get("a") != 5 {
		t.Error("Snapshot exposed internal map")
	}
	other := NewCounters()
	other.Add("a", 1)
	c.MergeInto(other)
	if other.Get("a") != 6 || other.Get("b") != 1 {
		t.Error("MergeInto wrong")
	}
	if sorted := c.Sorted(); len(sorted) != 2 {
		t.Errorf("Sorted = %v", sorted)
	}
}

func TestSortedOutput(t *testing.T) {
	res := &Result{Output: []KV{{Key: 5, Value: Int64Value(1)}, {Key: 1, Value: Int64Value(2)}, {Key: 3, Value: Int64Value(3)}}}
	sorted := res.SortedOutput()
	if sorted[0].Key != 1 || sorted[1].Key != 3 || sorted[2].Key != 5 {
		t.Errorf("SortedOutput = %v", sorted)
	}
	if res.Output[0].Key != 5 {
		t.Error("SortedOutput mutated original")
	}
}

func TestValueByteSizes(t *testing.T) {
	if (Float64Value(1)).ByteSize() != 8 {
		t.Error("Float64Value size")
	}
	if (Int64Value(1)).ByteSize() != 8 {
		t.Error("Int64Value size")
	}
	if (BoolValue(true)).ByteSize() != 1 {
		t.Error("BoolValue size")
	}
	if (PointValue{Coords: []float64{1, 2}}).ByteSize() != 16 {
		t.Error("PointValue size")
	}
	if (ADDecisionValue{}).ByteSize() != 17 {
		t.Error("ADDecisionValue size")
	}
	if (WeightedPointValue{vec.WeightedPoint{Sum: []float64{1, 2, 3}, Count: 1}}).ByteSize() != 40 {
		t.Error("WeightedPointValue size")
	}
}

// TestPropShuffleExactlyOnce: for random token streams, split sizes,
// reducer counts and cluster shapes, every emitted pair reaches exactly
// one reducer exactly once — verified by comparing against a sequential
// count.
func TestPropShuffleExactlyOnce(t *testing.T) {
	f := func(seed int64, splitRaw, reducersRaw, nodesRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		tokens := make([]int, n)
		want := map[int64]int64{}
		for i := range tokens {
			tokens[i] = r.Intn(20)
			want[int64(tokens[i])]++
		}
		fs := dfs.New(1 + int(splitRaw)%64)
		writeTokens(fs, "/in", tokens)
		job := wordCountJob(fs, "/in")
		job.NumReducers = 1 + int(reducersRaw)%8
		job.Cluster.Nodes = 1 + int(nodesRaw)%6
		res, err := job.Run()
		if err != nil {
			return false
		}
		got := countsFromResult(res)
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDeterministicOutputAcrossRuns guards the engine's deterministic
// merge-order property, which the G-means candidate sampling relies on for
// reproducible runs.
func TestDeterministicOutputAcrossRuns(t *testing.T) {
	fs := dfs.New(16)
	r := rand.New(rand.NewSource(9))
	tokens := make([]int, 300)
	for i := range tokens {
		tokens[i] = r.Intn(30)
	}
	writeTokens(fs, "/in", tokens)
	run := func() string {
		res, err := wordCountJob(fs, "/in").Run()
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, kv := range res.SortedOutput() {
			fmt.Fprintf(&sb, "%d=%d;", kv.Key, int64(kv.Value.(Int64Value)))
		}
		return sb.String()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestNegativeKeysRouteAndGroup(t *testing.T) {
	fs := dfs.New(0)
	fs.Create("/in", []byte("0\n"))
	job := &Job{
		Name:     "negkeys",
		FS:       fs,
		Cluster:  testCluster(),
		Input:    "/in",
		PointDim: 1,
		NewPointMapper: func() PointMapper {
			return columnsMapper(func(ctx *TaskContext, cols *dfs.ColumnarSplit, emit Emitter) error {
				emit.Emit(-5, Int64Value(1))
				emit.Emit(-5, Int64Value(1))
				emit.Emit(-1<<62, Int64Value(1))
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key int64, values []Value, emit Emitter) error {
				emit.Emit(key, Int64Value(len(values)))
				return nil
			})
		},
		NumReducers: 4,
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := countsFromResult(res)
	if got[-5] != 2 || got[-1<<62] != 1 {
		t.Errorf("negative-key grouping = %v", got)
	}
}

func TestReducerErrorFailsJob(t *testing.T) {
	fs := dfs.New(0)
	writeTokens(fs, "/in", []int{1})
	job := wordCountJob(fs, "/in")
	job.NewReducer = func() Reducer {
		return ReducerFunc(func(ctx *TaskContext, key int64, values []Value, emit Emitter) error {
			return errors.New("boom")
		})
	}
	_, err := job.Run()
	var te *TaskError
	if !errors.As(err, &te) || te.Kind != ReduceTask {
		t.Fatalf("err = %v, want reduce TaskError", err)
	}
}

func TestOffsetKeysSurviveShuffle(t *testing.T) {
	// The 2^62 OFFSET trick of KMeansAndFindNewCenters depends on huge
	// keys shuffling intact.
	const offset = int64(1) << 62
	fs := dfs.New(0)
	fs.Create("/in", []byte("0\n1\n"))
	job := &Job{
		Name:     "offset",
		FS:       fs,
		Cluster:  testCluster(),
		Input:    "/in",
		PointDim: 1,
		NewPointMapper: func() PointMapper {
			return columnsMapper(func(ctx *TaskContext, cols *dfs.ColumnarSplit, emit Emitter) error {
				for range cols.Len() {
					emit.Emit(3, Int64Value(1))
					emit.Emit(3+offset, Int64Value(1))
				}
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key int64, values []Value, emit Emitter) error {
				emit.Emit(key, Int64Value(len(values)))
				return nil
			})
		},
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := countsFromResult(res)
	if got[3] != 2 || got[3+offset] != 2 {
		t.Errorf("offset keys mangled: %v", got)
	}
}
