package gmeansmr

import (
	"os"
	"path/filepath"
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/vec"
)

// encodeGMPB renders points as a binary point file, the way
// datagen -format binary writes one.
func encodeGMPB(points []vec.Vector, dim int) []byte {
	b := dfs.BinaryHeader(dim)
	for _, p := range points {
		b = dfs.AppendBinaryPoint(b, p)
	}
	return b
}

// TestFromFileSniffsBinary: the public file source must transparently read
// the binary point format datagen -format binary emits, yielding exactly
// the points the text encoding yields.
func TestFromFileSniffsBinary(t *testing.T) {
	ds, err := dataset.Generate(dataset.Spec{K: 3, Dim: 4, N: 120, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	textPath := filepath.Join(dir, "p.txt")
	var text []byte
	for _, p := range ds.Points {
		text = append(text, dataset.FormatPoint(p)...)
		text = append(text, '\n')
	}
	if err := os.WriteFile(textPath, text, 0o644); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "p.gmpb")
	if err := os.WriteFile(binPath, encodeGMPB(ds.Points, 4), 0o644); err != nil {
		t.Fatal(err)
	}

	a, err := Materialize(FromFile(textPath))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Materialize(FromFile(binPath))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(ds.Points) || len(b) != len(ds.Points) {
		t.Fatalf("text %d, binary %d, want %d points", len(a), len(b), len(ds.Points))
	}
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatalf("point %d dim %d: text %v != binary %v", i, d, a[i][d], b[i][d])
			}
		}
	}

	// Re-readability: a second Open must replay the stream.
	src := FromFile(binPath)
	if _, err := Materialize(src); err != nil {
		t.Fatal(err)
	}
	again, err := Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(ds.Points) {
		t.Fatalf("second read yielded %d points", len(again))
	}
}

// TestFromFileBinaryTruncated: a binary file cut mid-frame must fail with
// a descriptive error, not silently drop the tail.
func TestFromFileBinaryTruncated(t *testing.T) {
	ds, err := dataset.Generate(dataset.Spec{K: 2, Dim: 3, N: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	data := encodeGMPB(ds.Points, 3)
	path := filepath.Join(t.TempDir(), "trunc.gmpb")
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(FromFile(path)); err == nil {
		t.Fatal("truncated binary file accepted")
	}

	// A bare header (zero points) is structurally valid but yields the
	// same "no points" error as an empty text file.
	empty := filepath.Join(t.TempDir(), "empty.gmpb")
	if err := os.WriteFile(empty, dfs.BinaryHeader(3), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Materialize(FromFile(empty)); err == nil {
		t.Fatal("empty binary source accepted")
	}
}
