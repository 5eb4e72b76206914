package mr

import (
	"math/rand"
	"slices"
	"testing"
)

// taggedValue lets merge tests trace which run and emission slot a record
// came from, so order equality is checked record-for-record, not just
// key-for-key.
type taggedValue struct {
	run, seq int
}

func (taggedValue) ByteSize() int { return 8 }

// makeRuns builds r key-sorted runs with heavy key duplication both within
// and across runs — the worst case for tie-break fidelity.
func makeRuns(rng *rand.Rand, r, maxLen, keySpace int) [][]KV {
	runs := make([][]KV, r)
	for i := range runs {
		n := rng.Intn(maxLen + 1)
		run := make([]KV, n)
		for j := range run {
			run[j] = KV{Key: int64(rng.Intn(keySpace)), Value: taggedValue{run: i, seq: j}}
		}
		slices.SortStableFunc(run, byKey)
		runs[i] = run
	}
	return runs
}

// concatSortRuns is the historical reduce-side merge: concatenate the runs
// in task order, then stable-sort by key. It is the oracle MergeRuns is
// equivalence-tested against.
func concatSortRuns(runs [][]KV) []KV {
	var merged []KV
	for _, run := range runs {
		merged = append(merged, run...)
	}
	slices.SortStableFunc(merged, byKey)
	return merged
}

// TestMergeRunsMatchesConcatSort pins the engine's reduce-merge contract:
// the k-way merge must produce byte-for-byte the sequence of the
// historical concatenate + stable-sort formulation, for any number of
// runs, any duplication pattern, and empty runs in any position.
func TestMergeRunsMatchesConcatSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		r := rng.Intn(9)
		runs := makeRuns(rng, r, 20, 1+rng.Intn(6))
		want := concatSortRuns(runs)
		got := MergeRuns(runs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d records, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || got[i].Value != want[i].Value {
				t.Fatalf("trial %d record %d: kway (%d, %v) != concat-sort (%d, %v)",
					trial, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
			}
		}
	}
}

// TestMergeRunsFixedCases covers the documented tie-break explicitly:
// equal keys come out in run order, and within a run in emission order.
func TestMergeRunsFixedCases(t *testing.T) {
	v := func(run, seq int) Value { return taggedValue{run: run, seq: seq} }
	runs := [][]KV{
		{{Key: 1, Value: v(0, 0)}, {Key: 1, Value: v(0, 1)}, {Key: 3, Value: v(0, 2)}},
		{}, // empty run in the middle
		{{Key: 1, Value: v(2, 0)}, {Key: 2, Value: v(2, 1)}},
		{{Key: 0, Value: v(3, 0)}, {Key: 3, Value: v(3, 1)}},
	}
	got := MergeRuns(runs)
	want := []KV{
		{Key: 0, Value: v(3, 0)},
		{Key: 1, Value: v(0, 0)},
		{Key: 1, Value: v(0, 1)},
		{Key: 1, Value: v(2, 0)},
		{Key: 2, Value: v(2, 1)},
		{Key: 3, Value: v(0, 2)},
		{Key: 3, Value: v(3, 1)},
	}
	if len(got) != len(want) {
		t.Fatalf("merged %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	if out := MergeRuns(nil); out != nil {
		t.Errorf("MergeRuns(nil) = %v", out)
	}
	if out := MergeRuns([][]KV{{}, {}}); out != nil {
		t.Errorf("MergeRuns(empty runs) = %v", out)
	}
	single := [][]KV{{{Key: 5, Value: v(0, 0)}, {Key: 9, Value: v(0, 1)}}}
	if out := MergeRuns(single); len(out) != 2 || out[0].Key != 5 || out[1].Key != 9 {
		t.Errorf("single-run merge = %v", out)
	}
}

// TestMergeRunsDoesNotMutateInputs: the scheduler retains the shuffle
// structure; merging must not consume or reorder it.
func TestMergeRunsDoesNotMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	runs := makeRuns(rng, 4, 12, 3)
	snapshot := make([][]KV, len(runs))
	for i, run := range runs {
		snapshot[i] = slices.Clone(run)
	}
	MergeRuns(runs)
	for i := range runs {
		if !slices.Equal(runs[i], snapshot[i]) {
			t.Fatalf("run %d mutated by merge", i)
		}
	}
}
