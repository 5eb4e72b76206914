package dfs

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestCreateReadAll: reading a whole file back with Contents returns the
// created bytes without accounting a read — replication is not one of the
// paper's dataset scans.
func TestCreateReadAll(t *testing.T) {
	fs := New(0)
	fs.Create("/a", []byte("hello\nworld\n"))
	got, err := fs.Contents("/a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello\nworld\n" {
		t.Errorf("Contents = %q", got)
	}
	if fs.DatasetReads() != 0 || fs.BytesRead() != 0 {
		t.Errorf("Contents accounted a read: DatasetReads = %d, BytesRead = %d", fs.DatasetReads(), fs.BytesRead())
	}
}

func TestReadAllReturnsCopy(t *testing.T) {
	fs := New(0)
	fs.Create("/a", []byte("abc"))
	got, _ := fs.Contents("/a")
	got[0] = 'X'
	again, _ := fs.Contents("/a")
	if string(again) != "abc" {
		t.Error("Contents exposed internal buffer")
	}
}

func TestNotFound(t *testing.T) {
	fs := New(0)
	if _, err := fs.Contents("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, err := fs.OpenSplitPoints(Split{Path: "/missing"}, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("OpenSplitPoints err = %v, want ErrNotFound", err)
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
	data, err := fs.Contents("/w")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "line 1\nline 2\n" {
		t.Errorf("contents = %q", data)
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

func TestSplitRecordAlignment(t *testing.T) {
	// Records of various lengths with a tiny split size force records to
	// straddle split boundaries; Hadoop alignment must deliver each record
	// exactly once.
	lines := []string{"a", "bb", "ccc", "dddd", "eeeee", "ffffff", "g", "hh"}
	fs := New(7)
	fs.Create("/f", []byte(strings.Join(lines, "\n")+"\n"))
	got, _, _ := collectRecords(t, fs, "/f")
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
	got, _, _ := collectRecords(t, fs, "/f")
	if len(got) != 2 || got[0] != "ab" || got[1] != "cdefg" {
		t.Errorf("records = %v", got)
	}
}

func TestCounters(t *testing.T) {
	fs := New(0)
	fs.Create("/f", []byte("12345\n"))
	if fs.BytesWritten() != 6 {
		t.Errorf("BytesWritten = %d", fs.BytesWritten())
	}
	splits, _ := fs.Splits("/f")
	if _, err := fs.OpenSplitPoints(splits[0], 1); err != nil {
		t.Fatal(err)
	}
	if fs.BytesRead() != 6 {
		t.Errorf("BytesRead = %d", fs.BytesRead())
	}
	if fs.DatasetReads() != 0 {
		t.Errorf("a split scan ticked DatasetReads = %d; jobs tick it", fs.DatasetReads())
	}
	fs.CountDatasetRead()
	if fs.DatasetReads() != 1 {
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
	got, _ := fs.Contents("/f")
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
		got, _, consumed := collectRecords(t, fs, "/f")
		if len(got) != len(lines) || consumed != int64(buf.Len()) {
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

func TestVersionAndContents(t *testing.T) {
	fs := New(16)
	if v := fs.Version("/a"); v != 0 {
		t.Fatalf("fresh path version = %d, want 0", v)
	}
	// Every Create and Delete of a path gives it a strictly greater
	// version; a no-op delete leaves it alone.
	var seen []int64
	step := func(what string, op func(), wantBump bool) {
		t.Helper()
		before := fs.Version("/a")
		op()
		v := fs.Version("/a")
		switch {
		case wantBump && v <= before:
			t.Fatalf("after %s version = %d, want > %d", what, v, before)
		case !wantBump && v != before:
			t.Fatalf("after %s version = %d, want %d", what, v, before)
		}
		if wantBump {
			seen = append(seen, v)
		}
	}
	step("create", func() { fs.Create("/a", []byte("hello\n")) }, true)
	step("overwrite", func() { fs.Create("/a", []byte("world\n")) }, true)
	step("delete", func() { fs.Delete("/a") }, true)
	step("no-op delete", func() { fs.Delete("/a") }, false)
	step("re-create", func() { fs.Create("/a", []byte("again\n")) }, true)

	// Another FS never repeats a version this one gave the same path, so
	// a replica cache keyed by (path, version) cannot confuse the two.
	other := New(16)
	other.Create("/a", []byte("other\n"))
	for _, v := range seen {
		if other.Version("/a") == v {
			t.Fatalf("second FS reuses version %d of the first at the same path", v)
		}
	}

	reads := fs.DatasetReads()
	bytesRead := fs.BytesRead()
	got, err := fs.Contents("/a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "again\n" {
		t.Fatalf("Contents = %q", got)
	}
	// Contents is the replication-plane accessor: no scan accounting.
	if fs.DatasetReads() != reads || fs.BytesRead() != bytesRead {
		t.Fatal("Contents must not tick read accounting")
	}
	// The copy is private: mutating it must not corrupt the file.
	got[0] = 'X'
	back, _ := fs.Contents("/a")
	if string(back) != "again\n" {
		t.Fatal("Contents must return a copy")
	}
	if _, err := fs.Contents("/missing"); err == nil {
		t.Fatal("Contents of a missing path must fail")
	}
}
