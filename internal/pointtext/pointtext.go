// Package pointtext is the single tokenizer, formatter and measurer for
// the repository's point record format: one point per line, space- or
// tab-separated float64 coordinates, repeated separators tolerated. Both
// the dataset package (text parsing, FormatPoint) and the dfs package
// (the decoded-split cache, PointWriter) consume it — dataset imports
// dfs, so this leaf package is what lets the two share one implementation
// instead of keeping hand-synchronized copies. AppendRecord defines a
// record's text; RecordLen returns its length without formatting it,
// which is all staging needs, and the tests hold the two equal.
package pointtext

import (
	"fmt"
	"strconv"
)

// AppendRecord appends the text record of p, without a line terminator:
// the coordinates in Go's shortest round-trip float format ('g', -1),
// separated by single spaces. strconv.ParseFloat returns every coordinate
// bit-identical, except that every NaN parses as math.NaN().
func AppendRecord(dst []byte, p []float64) []byte {
	for i, x := range p {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
	}
	return dst
}

// AppendPoint parses one record onto dst, enforcing exactly dim
// coordinates, and returns the extended slice. The generic parameter lets
// string records (dataset) and byte-slice records (dfs) share the code
// without conversions on the caller side.
func AppendPoint[S ~string | ~[]byte](dst []float64, rec S, dim int) ([]float64, error) {
	start := len(dst)
	dst, err := appendTokens(dst, rec)
	if err != nil {
		return nil, err
	}
	if got := len(dst) - start; got != dim {
		return nil, fmt.Errorf("expected %d coordinates, got %d in record %q", dim, got, string(rec))
	}
	return dst, nil
}

// AppendPointAny parses a record of unknown arity (at least one
// coordinate) onto dst — the shape of ingestion paths that infer the
// dimensionality from the first record.
func AppendPointAny[S ~string | ~[]byte](dst []float64, rec S) ([]float64, error) {
	start := len(dst)
	dst, err := appendTokens(dst, rec)
	if err != nil {
		return nil, err
	}
	if len(dst) == start {
		return nil, fmt.Errorf("empty point record")
	}
	return dst, nil
}

// appendTokens is the one tokenizer loop behind both entry points.
func appendTokens[S ~string | ~[]byte](dst []float64, rec S) ([]float64, error) {
	i, n := 0, len(rec)
	for i < n {
		for i < n && (rec[i] == ' ' || rec[i] == '\t') {
			i++
		}
		if i >= n {
			break
		}
		j := i
		for j < n && rec[j] != ' ' && rec[j] != '\t' {
			j++
		}
		x, err := strconv.ParseFloat(string(rec[i:j]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q in record %q: %w", string(rec[i:j]), string(rec), err)
		}
		dst = append(dst, x)
		i = j
	}
	return dst, nil
}
