package dataset

import (
	"math"
	"testing"

	"gmeansmr/internal/pointtext"
)

// FuzzParsePoint drives the text record parser with arbitrary lines. It
// must never panic, and any record it accepts must satisfy the format's
// contracts: at least one coordinate, exact agreement with the
// known-dimension fast path, and a lossless FormatPoint round-trip
// (Go's shortest-form float encoding is bit-exact for finite values).
func FuzzParsePoint(f *testing.F) {
	f.Add("1 2 3")
	f.Add("1.5\t-2.25")
	f.Add("1e10 -3.2E-8 +0.5")               // exponent forms
	f.Add("  7 \t\t 8  ")                    // repeated separators
	f.Add("1 2\r")                           // CRLF leftover from a foreign writer
	f.Add("NaN Inf -Inf")                    // IEEE special literals
	f.Add("Infinity -infinity nan")          // ParseFloat's long spellings
	f.Add("1 2 3 4 5 6 7 8 9 10 11 12 13")   // wide record
	f.Add("")                                // empty line
	f.Add("1,2,3")                           // wrong separator
	f.Add("0x1p-2 010 1_000.5")              // hex floats, leading zeros, underscores
	f.Add("1.797693134862315708145274e+308") // near MaxFloat64
	f.Add("-0 0 +0")
	f.Fuzz(func(t *testing.T, line string) {
		p, err := ParsePoint(line)
		if err != nil {
			return
		}
		if len(p) == 0 {
			t.Fatalf("accepted %q with zero coordinates", line)
		}
		// The known-dimension path the DFS decode uses must accept exactly
		// what the inferring path produced, bit for bit.
		q, err := pointtext.AppendPoint(nil, line, len(p))
		if err != nil {
			t.Fatalf("AppendPoint(%q, %d) rejected what ParsePoint accepted: %v", line, len(p), err)
		}
		for d := range p {
			if math.Float64bits(p[d]) != math.Float64bits(q[d]) {
				t.Fatalf("dim %d of %q: ParsePoint %x vs AppendPoint %x",
					d, line, math.Float64bits(p[d]), math.Float64bits(q[d]))
			}
		}
		// FormatPoint∘ParsePoint is the identity on parsed points.
		r, err := ParsePoint(FormatPoint(p))
		if err != nil {
			t.Fatalf("re-parsing FormatPoint(%v) = %q failed: %v", p, FormatPoint(p), err)
		}
		if len(r) != len(p) {
			t.Fatalf("round trip of %q changed arity: %v -> %v", line, p, r)
		}
		for d := range p {
			if math.IsNaN(p[d]) {
				if !math.IsNaN(r[d]) {
					t.Fatalf("dim %d of %q: NaN did not survive the round trip (%v)", d, line, r[d])
				}
				continue
			}
			if math.Float64bits(p[d]) != math.Float64bits(r[d]) {
				t.Fatalf("dim %d of %q: round trip %x -> %x",
					d, line, math.Float64bits(p[d]), math.Float64bits(r[d]))
			}
		}
	})
}
