package dfs

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCreateReadAll(t *testing.T) {
	fs := New(0)
	fs.Create("/a", []byte("hello\nworld\n"))
	got, err := fs.ReadAll("/a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello\nworld\n" {
		t.Errorf("ReadAll = %q", got)
	}
	if fs.DatasetReads() != 1 {
		t.Errorf("DatasetReads = %d, want 1", fs.DatasetReads())
	}
}

func TestReadAllReturnsCopy(t *testing.T) {
	fs := New(0)
	fs.Create("/a", []byte("abc"))
	got, _ := fs.ReadAll("/a")
	got[0] = 'X'
	again, _ := fs.ReadAll("/a")
	if string(again) != "abc" {
		t.Error("ReadAll exposed internal buffer")
	}
}

func TestNotFound(t *testing.T) {
	fs := New(0)
	if _, err := fs.ReadAll("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, err := fs.Splits("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Splits err = %v, want ErrNotFound", err)
	}
	if _, err := fs.Size("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size err = %v", err)
	}
}

func TestDelete(t *testing.T) {
	fs := New(0)
	fs.Create("/b", []byte("x"))
	fs.Create("/a", []byte("y"))
	fs.Delete("/a")
	if _, err := fs.Size("/a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted file: Size err = %v, want ErrNotFound", err)
	}
	if n, err := fs.Size("/b"); err != nil || n != 1 {
		t.Errorf("surviving file: Size = %d, %v", n, err)
	}
	fs.Delete("/a") // idempotent
}

func TestWriterCommitsOnClose(t *testing.T) {
	fs := New(0)
	w := fs.Writer("/w")
	fmt.Fprintf(w, "line %d\n", 1)
	w.WriteString("line 2\n")
	if _, err := fs.Size("/w"); !errors.Is(err, ErrNotFound) {
		t.Fatal("file should not exist before Close")
	}
	w.Close()
	data, err := fs.ReadAll("/w")
	if err != nil {
		t.Fatal(err)
	}
	if lines := SplitLines(data); len(lines) != 2 || lines[0] != "line 1" || lines[1] != "line 2" {
		t.Errorf("lines = %v", lines)
	}
}

func TestSplitsCoverFileExactly(t *testing.T) {
	fs := New(10)
	fs.Create("/f", []byte(strings.Repeat("x", 35)))
	splits, err := fs.Splits("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 4 {
		t.Fatalf("splits = %d, want 4", len(splits))
	}
	var last int64
	for i, sp := range splits {
		if sp.Start != last {
			t.Errorf("split %d starts at %d, want %d", i, sp.Start, last)
		}
		if sp.Index != i {
			t.Errorf("split %d has index %d", i, sp.Index)
		}
		last = sp.End
	}
	if last != 35 {
		t.Errorf("splits end at %d, want 35", last)
	}
}

func TestSplitsEmptyFile(t *testing.T) {
	fs := New(10)
	fs.Create("/e", nil)
	splits, err := fs.Splits("/e")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 0 {
		t.Errorf("splits of empty file = %d, want 0", len(splits))
	}
}

// readViaSplits reads every record of the file through its splits, in
// order, the way a map wave does.
func readViaSplits(t *testing.T, fs *FS, path string) []string {
	t.Helper()
	splits, err := fs.Splits(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, sp := range splits {
		rd, err := fs.OpenSplit(sp)
		if err != nil {
			t.Fatal(err)
		}
		for {
			rec, ok := rd.Next()
			if !ok {
				break
			}
			out = append(out, rec)
		}
	}
	return out
}

func TestSplitRecordAlignment(t *testing.T) {
	// Records of various lengths with a tiny split size force records to
	// straddle split boundaries; Hadoop alignment must deliver each record
	// exactly once.
	lines := []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff", "g", "hh"}
	fs := New(7)
	fs.Create("/f", []byte(strings.Join(lines, "\n")+"\n"))
	got := readViaSplits(t, fs, "/f")
	if len(got) != len(lines) {
		t.Fatalf("got %d records, want %d: %v", len(got), len(lines), got)
	}
	for i := range lines {
		if got[i] != lines[i] {
			t.Errorf("record %d = %q, want %q", i, got[i], lines[i])
		}
	}
}

func TestSplitNoTrailingNewline(t *testing.T) {
	fs := New(4)
	fs.Create("/f", []byte("ab\ncdefg")) // final record unterminated
	got := readViaSplits(t, fs, "/f")
	if len(got) != 2 || got[0] != "ab" || got[1] != "cdefg" {
		t.Errorf("records = %v", got)
	}
}

func TestCounters(t *testing.T) {
	fs := New(0)
	fs.Create("/f", []byte("abcde\n"))
	if fs.BytesWritten() != 6 {
		t.Errorf("BytesWritten = %d", fs.BytesWritten())
	}
	fs.ReadAll("/f")
	if fs.BytesRead() != 6 {
		t.Errorf("BytesRead = %d", fs.BytesRead())
	}
	fs.CountDatasetRead()
	if fs.DatasetReads() != 2 {
		t.Errorf("DatasetReads = %d", fs.DatasetReads())
	}
	fs.ResetCounters()
	if fs.BytesRead() != 0 || fs.BytesWritten() != 0 || fs.DatasetReads() != 0 {
		t.Error("ResetCounters left non-zero counters")
	}
	if n, err := fs.Size("/f"); err != nil || n != 6 {
		t.Error("ResetCounters should not touch files")
	}
}

func TestOverwrite(t *testing.T) {
	fs := New(0)
	fs.Create("/f", []byte("old"))
	fs.Create("/f", []byte("new"))
	got, _ := fs.ReadAll("/f")
	if string(got) != "new" {
		t.Errorf("contents = %q", got)
	}
}

// TestPropSplitsDeliverEveryRecordOnce is the core DFS invariant: for any
// record set and any split size, reading via splits equals reading the
// whole file.
func TestPropSplitsDeliverEveryRecordOnce(t *testing.T) {
	f := func(seed int64, splitRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		splitSize := 1 + int(splitRaw)%64
		n := r.Intn(50)
		lines := make([]string, n)
		for i := range lines {
			lines[i] = strings.Repeat(string(rune('a'+i%26)), 1+r.Intn(12))
		}
		fs := New(splitSize)
		var buf strings.Builder
		for _, ln := range lines {
			buf.WriteString(ln + "\n")
		}
		fs.Create("/f", []byte(buf.String()))
		splits, err := fs.Splits("/f")
		if err != nil {
			return false
		}
		var got []string
		for _, sp := range splits {
			rd, err := fs.OpenSplit(sp)
			if err != nil {
				return false
			}
			for {
				rec, ok := rd.Next()
				if !ok {
					break
				}
				got = append(got, rec)
			}
		}
		if len(got) != len(lines) {
			return false
		}
		for i := range lines {
			if got[i] != lines[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
