package dataset

import (
	"fmt"
	"strings"
	"testing"

	"gmeansmr/internal/dfs"
	"gmeansmr/internal/vec"
)

// parseDim is ParsePoint plus the arity check a reader of a fixed-dim
// file applies.
func parseDim(line string, dim int) (vec.Vector, error) {
	p, err := ParsePoint(line)
	if err == nil && len(p) != dim {
		err = fmt.Errorf("record %q has %d coordinates, want %d", line, len(p), dim)
	}
	return p, err
}

// TestDFSDecodeMatchesParsePoint pins the end-to-end contract between the
// two text readers: dfs.OpenSplitPoints must decode exactly what
// ParsePoint (the reader of text files outside the DFS) decodes, byte for
// byte, across the quirks the text format tolerates. Both delegate to
// internal/pointtext, so this is a guard against either side growing its
// own preprocessing rather than against duplicate tokenizers.
func TestDFSDecodeMatchesParsePoint(t *testing.T) {
	records := []struct {
		line string
		dim  int
	}{
		{"1 2 3", 3},
		{"1.5\t-2.25\t3e-9", 3}, // tabs, exponents
		{"  7   8  ", 2},        // repeated/leading/trailing separators
		{"-0 0.0", 2},           // signed zero
		{"12.345678901234567 -9.87654321987654321", 2}, // full round-trip precision
		{"1e308 -1e308", 2},                            // near-overflow magnitudes
	}
	for _, rec := range records {
		want, err := parseDim(rec.line, rec.dim)
		if err != nil {
			t.Fatalf("ParsePoint(%q): %v", rec.line, err)
		}
		fs := dfs.New(0)
		fs.Create("/r", []byte(rec.line+"\n"))
		splits, err := fs.Splits("/r")
		if err != nil {
			t.Fatal(err)
		}
		ps, err := fs.OpenSplitPoints(splits[0], rec.dim)
		if err != nil {
			t.Fatalf("dfs decode of %q: %v", rec.line, err)
		}
		if ps.Len() != 1 {
			t.Fatalf("dfs decoded %d points from %q", ps.Len(), rec.line)
		}
		got := ps.At(0)
		for d := range want {
			if got[d] != want[d] {
				t.Errorf("record %q dim %d: dfs %v != dataset %v", rec.line, d, got[d], want[d])
			}
		}
	}

	// Both tokenizers must also agree on rejection: wrong arity and
	// non-numeric tokens.
	for _, bad := range []struct {
		line string
		dim  int
	}{{"1 2 3", 2}, {"1 x", 2}, {"", 1}} {
		if _, err := parseDim(bad.line, bad.dim); err == nil {
			t.Fatalf("ParsePoint accepted %q dim %d", bad.line, bad.dim)
		}
		fs := dfs.New(0)
		fs.Create("/r", []byte(bad.line+"\n"))
		splits, err := fs.Splits("/r")
		if err != nil {
			t.Fatal(err)
		}
		if len(splits) == 0 {
			continue // empty file: no records on either path
		}
		if _, err := fs.OpenSplitPoints(splits[0], bad.dim); err == nil {
			t.Errorf("dfs decode accepted %q dim %d", bad.line, bad.dim)
		}
	}

	// And on a full FormatPoint round trip of generated data.
	ds, err := Generate(Spec{K: 3, Dim: 7, N: 200, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, p := range ds.Points {
		b.WriteString(FormatPoint(p))
		b.WriteByte('\n')
	}
	fs := dfs.New(256)
	fs.Create("/pts", []byte(b.String()))
	splits, err := fs.Splits("/pts")
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, sp := range splits {
		ps, err := fs.OpenSplitPoints(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < ps.Len(); j++ {
			want, err := parseDim(FormatPoint(ds.Points[i]), 7)
			if err != nil {
				t.Fatal(err)
			}
			got := ps.At(j)
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("point %d dim %d: dfs %v != dataset %v", i, d, got[d], want[d])
				}
			}
			i++
		}
	}
	if i != len(ds.Points) {
		t.Fatalf("decoded %d of %d points", i, len(ds.Points))
	}
}
