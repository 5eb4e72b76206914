package dfs

import (
	"math/rand"
	"strings"
	"testing"
)

// collectRecords walks every split of the file with recordIter, in order,
// and returns each owned record with its byte offset, plus the bytes the
// walk consumed (records and terminators) — what decodeSplit accounts.
func collectRecords(t *testing.T, fs *FS, path string) (lines []string, offsets []int64, consumed int64) {
	t.Helper()
	splits, err := fs.Splits(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := fs.Contents(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range splits {
		it := newRecordIter(data, sp)
		for {
			rec, ok := it.next()
			if !ok {
				break
			}
			lines = append(lines, string(rec))
			offsets = append(offsets, it.recStart)
			consumed += it.pos - it.recStart
		}
	}
	return lines, offsets, consumed
}

// TestRecordOffsetsMultiSplit is the regression test for the
// split-relative offset drift: on every split but the first, a running sum
// seeded with Split.Start over-counts by the skipped partial leading
// record. The true offsets must equal each record's actual byte position.
func TestRecordOffsetsMultiSplit(t *testing.T) {
	records := []string{"alpha", "bb", "c", "dddddddd", "ee", "ffff", "g"}
	data := strings.Join(records, "\n") + "\n"
	fs := New(7) // force records to straddle many split boundaries
	fs.Create("/f", []byte(data))
	lines, offsets, _ := collectRecords(t, fs, "/f")
	if len(lines) != len(records) {
		t.Fatalf("read %d records, want %d", len(lines), len(records))
	}
	want := int64(0)
	for i, rec := range records {
		if lines[i] != rec {
			t.Errorf("record %d = %q, want %q", i, lines[i], rec)
		}
		if offsets[i] != want {
			t.Errorf("record %d offset = %d, want %d", i, offsets[i], want)
		}
		want += int64(len(rec)) + 1
	}
}

// TestRecordOffsetsCRLF pins the two-byte-terminator case: records are
// returned without the '\r', offsets are the line starts, and the
// consumed bytes include the full terminators.
func TestRecordOffsetsCRLF(t *testing.T) {
	data := "aa\r\nbbbb\r\nc\r\ndd\r\n"
	fs := New(5)
	fs.Create("/f", []byte(data))
	lines, offsets, consumed := collectRecords(t, fs, "/f")
	wantLines := []string{"aa", "bbbb", "c", "dd"}
	wantOffsets := []int64{0, 4, 10, 13}
	if len(lines) != len(wantLines) {
		t.Fatalf("read %d records, want %d: %q", len(lines), len(wantLines), lines)
	}
	for i := range wantLines {
		if lines[i] != wantLines[i] {
			t.Errorf("record %d = %q, want %q (no trailing \\r)", i, lines[i], wantLines[i])
		}
		if offsets[i] != wantOffsets[i] {
			t.Errorf("record %d offset = %d, want %d", i, offsets[i], wantOffsets[i])
		}
	}
	if consumed != int64(len(data)) {
		t.Errorf("consumed %d bytes, want %d (CRLF terminators charged)", consumed, len(data))
	}
}

// TestRecordOffsetNoFinalNewline: the unterminated last record has a
// correct offset and consumes only its real bytes.
func TestRecordOffsetNoFinalNewline(t *testing.T) {
	data := "ab\ncdefg"
	fs := New(4)
	fs.Create("/f", []byte(data))
	lines, offsets, consumed := collectRecords(t, fs, "/f")
	if len(lines) != 2 || lines[0] != "ab" || lines[1] != "cdefg" {
		t.Fatalf("records = %q", lines)
	}
	if offsets[0] != 0 || offsets[1] != 3 {
		t.Errorf("offsets = %v, want [0 3]", offsets)
	}
	if consumed != int64(len(data)) {
		t.Errorf("consumed %d bytes, want %d", consumed, len(data))
	}
}

// TestPropRecordOffsets: for any record set and split size, the offset
// stream equals the true byte positions of the records in the file, and
// the walk consumes every byte exactly once.
func TestPropRecordOffsets(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30)
		var b strings.Builder
		var wantOff []int64
		var wantLines []string
		for i := 0; i < n; i++ {
			rec := strings.Repeat(string(rune('a'+i%26)), r.Intn(10))
			wantOff = append(wantOff, int64(b.Len()))
			wantLines = append(wantLines, rec)
			b.WriteString(rec)
			if r.Intn(4) == 0 {
				b.WriteString("\r\n")
			} else {
				b.WriteString("\n")
			}
		}
		fs := New(1 + r.Intn(24))
		fs.Create("/f", []byte(b.String()))
		lines, offsets, consumed := collectRecords(t, fs, "/f")
		if len(lines) != n || consumed != int64(b.Len()) {
			t.Fatalf("seed %d: %d records over %d bytes, want %d over %d", seed, len(lines), consumed, n, b.Len())
		}
		for i := range wantLines {
			if lines[i] != wantLines[i] || offsets[i] != wantOff[i] {
				t.Fatalf("seed %d record %d: (%q, %d), want (%q, %d)",
					seed, i, lines[i], offsets[i], wantLines[i], wantOff[i])
			}
		}
	}
}
