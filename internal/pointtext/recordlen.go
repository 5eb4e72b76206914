package pointtext

// The length of a text record, computed without writing it.
//
// RecordLen needs, per coordinate, only what strconv's shortest 'g'
// formatting decides before it writes a character: the number of
// significant digits nd and the decimal point position dp of the shortest
// decimal that round-trips (Adams, "Ryū: fast float-to-string
// conversion", PLDI 2018). shortestDecimal below is a port of the
// shortest path of Go's strconv/ftoaryu.go (ryuFtoaShortest,
// computeBounds, mult128bitPow10, ryuDigits, ryuDigits32) with the same
// exactness and rounding flags, taken at the same points. Where strconv
// writes the rounded central value's digits into a buffer and then trims
// its zeros, the port keeps the value and counts: its decimal length and
// its trailing zeros. floatLen turns (nd, dp) into the length of the %e
// or %f form the way strconv's formatDigits chooses between them.
//
// The ported code is covered by Go's licence:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

import (
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// RecordLen returns len(AppendRecord(nil, p)) without formatting p: the
// shortest 'g' length of every coordinate plus one space between each
// two. It holds for every float64, NaN, ±Inf, ±0 and subnormals included.
func RecordLen(p []float64) int {
	if len(p) == 0 {
		return 0
	}
	pow := powersOfTen()
	n := len(p) - 1 // the separators
	for _, x := range p {
		n += floatLen(x, pow)
	}
	return n
}

// floatLen is len(strconv.AppendFloat(nil, x, 'g', -1, 64)).
func floatLen(x float64, pow *pow10Table) int {
	b := math.Float64bits(x)
	neg := int(b >> 63)
	exp := int(b>>52) & 0x7ff
	mant := b & (1<<52 - 1)
	switch exp {
	case 0x7ff:
		if mant != 0 {
			return 3 // "NaN", whatever its sign and payload
		}
		return 4 // "+Inf" or "-Inf"
	case 0:
		exp++ // subnormal
	default:
		mant |= 1 << 52
	}
	nd, dp := shortestDecimal(mant, exp-1023-52, pow)

	// formatDigits' rule for shortest 'g': %e when the decimal exponent
	// is below -4 or at least 6 (eprec = 6), %f otherwise. Zero is nd = 0,
	// dp = 0 and takes %f: "0".
	if e := dp - 1; e < -4 || e >= 6 {
		// d[.ddd]e±dd or e±ddd
		n := neg + 1 + 2 + 2
		if nd > 1 {
			n += nd // the point and nd-1 digits
		}
		if e <= -100 || e >= 100 {
			n++
		}
		return n
	}
	// ddd[.ddd], or 0.000ddd when dp <= 0
	n := neg + max(dp, 1)
	if nd > dp {
		n += 1 + nd - dp // the point and the fraction
	}
	return n
}

// shortestDecimal returns the digit count nd and decimal point position
// dp of the shortest decimal that parses back to mant×2^exp, as
// strconv's ryuFtoaShortest leaves them in its decimalSlice: the number
// is 0.d₁…d_nd × 10^dp, and nd = dp = 0 for zero.
func shortestDecimal(mant uint64, exp int, pow *pow10Table) (nd, dp int) {
	if mant == 0 {
		return 0, 0
	}
	// If input is an exact integer with fewer bits than the mantissa,
	// the previous and next integer are not admissible representations.
	if exp <= 0 && bits.TrailingZeros64(mant) >= -exp {
		mant >>= uint(-exp)
		return ryuDigits(mant, mant, mant, true, false)
	}
	ml, mc, mu, e2 := computeBounds(mant, exp)
	if e2 == 0 {
		return ryuDigits(ml, mc, mu, true, false)
	}
	// Find 10^q *larger* than 2^-e2
	q := mulByLog2Log10(-e2) + 1

	// Multiply by 10^q using 128-bit arithmetic. The exponent is the same
	// for all 3 numbers.
	dl, _, dl0 := mult128bitPow10(ml, e2, q, pow)
	dc, _, dc0 := mult128bitPow10(mc, e2, q, pow)
	du, e2, du0 := mult128bitPow10(mu, e2, q, pow)
	if e2 >= 0 {
		panic("pointtext: not enough significant bits after mult128bitPow10")
	}
	// Is it an exact computation?
	if q > 55 {
		// Large positive powers of ten are not exact
		dl0, dc0, du0 = false, false, false
	}
	if q < 0 && q >= -24 {
		// Division by a power of ten may be exact.
		// (5^25 is a 59-bit number so division by 5^25 is never exact.)
		if divisibleByPower5(ml, -q) {
			dl0 = true
		}
		if divisibleByPower5(mc, -q) {
			dc0 = true
		}
		if divisibleByPower5(mu, -q) {
			du0 = true
		}
	}
	// Express the results (dl, dc, du)*2^e2 as integers.
	// Extra bits must be removed and rounding hints computed.
	extra := uint(-e2)
	extraMask := uint64(1<<extra - 1)
	// Now compute the floored, integral base 10 mantissas.
	dl, fracl := dl>>extra, dl&extraMask
	dc, fracc := dc>>extra, dc&extraMask
	du, fracu := du>>extra, du&extraMask
	// Is it allowed to use 'du' as a result?
	// It is always allowed when it is truncated, but also
	// if it is exact and the original binary mantissa is even.
	// When disallowed, we can subtract 1.
	uok := !du0 || fracu > 0
	if du0 && fracu == 0 {
		uok = mant&1 == 0
	}
	if !uok {
		du--
	}
	// Is 'dc' the correctly rounded base 10 mantissa?
	// The correct rounding might be dc+1
	var cup bool
	if dc0 {
		// If we computed an exact product, the half integer
		// should round to next (even) integer if 'dc' is odd.
		cup = fracc > 1<<(extra-1) ||
			(fracc == 1<<(extra-1) && dc&1 == 1)
	} else {
		// otherwise, the result is a lower truncation of the ideal
		// result.
		cup = fracc>>(extra-1) == 1
	}
	// Is 'dl' an allowed representation?
	// Only if it is an exact value, and if the original binary mantissa
	// was even.
	lok := dl0 && fracl == 0 && (mant&1 == 0)
	if !lok {
		dl++
	}
	// We need to remember whether the trimmed digits of 'dc' are zero.
	c0 := dc0 && fracc == 0
	nd, dp = ryuDigits(dl, dc, du, c0, cup)
	return nd, dp - q
}

// mulByLog2Log10 returns math.Floor(x * log(2)/log(10)) for an integer x in
// the range -1600 <= x && x <= +1600.
func mulByLog2Log10(x int) int {
	// log(2)/log(10) ≈ 0.30102999566 ≈ 78913 / 2^18
	return (x * 78913) >> 18
}

// mulByLog10Log2 returns math.Floor(x * log(10)/log(2)) for an integer x in
// the range -500 <= x && x <= +500.
func mulByLog10Log2(x int) int {
	// log(10)/log(2) ≈ 3.32192809489 ≈ 108853 / 2^15
	return (x * 108853) >> 15
}

// computeBounds returns a floating-point vector (l, c, u)×2^e2
// where the mantissas are 55-bit integers, describing the interval
// represented by the input float64.
func computeBounds(mant uint64, exp int) (lower, central, upper uint64, e2 int) {
	if mant != 1<<52 || exp == -1023+1-52 {
		// regular case (or denormals)
		return 2*mant - 1, 2 * mant, 2*mant + 1, exp - 1
	}
	// border of an exponent
	return 4*mant - 1, 4 * mant, 4*mant + 2, exp - 2
}

// ryuDigits returns (nd, dp) of the shortest decimal in [lower, upper]
// nearest central, the digits strconv's ryuDigits writes and then trims
// of their trailing and leading zeros. central = chi×10^9 + clo is split
// as strconv splits it, and each branch counts the digits its writes
// would leave.
func ryuDigits(lower, central, upper uint64, c0, cup bool) (nd, dp int) {
	lhi, llo := divmod1e9(lower)
	chi, clo := divmod1e9(central)
	uhi, ulo := divmod1e9(upper)
	if uhi == 0 {
		// only low digits (for denormals): the 9-digit field holds c,
		// zero-padded, followed by trimmed zeros.
		c, trimmed := ryuDigits32(llo, clo, ulo, c0, cup)
		w := decimalLen(c)
		return w - trailingZeros(c), w + trimmed
	}
	if lhi < uhi {
		// truncate 9 digits at once.
		if llo != 0 {
			lhi++
		}
		c0 = c0 && clo == 0
		cup = (clo > 5e8) || (clo == 5e8 && cup)
		c, trimmed := ryuDigits32(lhi, chi, uhi, c0, cup)
		w := decimalLen(c)
		return w - trailingZeros(c), w + trimmed + 9
	}
	// The high part chi is written whole, then the low part fills a
	// field of 9 digits less the ones ryuDigits32 trimmed.
	c, trimmed := ryuDigits32(llo, clo, ulo, c0, cup)
	w := decimalLen(chi)
	if c == 0 {
		return w - trailingZeros(chi), w + 9
	}
	return w + 9 - trimmed - trailingZeros(c), w + 9
}

// ryuDigits32 rounds central, a number less than 1e9, to the fewest
// digits that stay within [lower, upper]: it returns the rounded value
// and how many low digits were trimmed. This is strconv's ryuDigits32
// without the digit writes; its early exit for upper == 0 trims the
// whole 9-digit field.
func ryuDigits32(lower, central, upper uint32, c0, cup bool) (uint32, int) {
	if upper == 0 {
		return 0, 9
	}
	trimmed := 0
	// Remember last trimmed digit to check for round-up.
	// c0 will be used to remember zeroness of following digits.
	cNextDigit := 0
	for upper > 0 {
		// Repeatedly compute:
		// l = Ceil(lower / 10^k)
		// c = Round(central / 10^k)
		// u = Floor(upper / 10^k)
		// and stop when c goes out of the (l, u) interval.
		l := (lower + 9) / 10
		c, cdigit := central/10, central%10
		u := upper / 10
		if l > u {
			// don't trim the last digit as it is forbidden to go below l
			// other, trim and exit now.
			break
		}
		// Check that we didn't cross the lower boundary.
		// The case where l < u but c == l-1 is essentially impossible,
		// but may happen if:
		//    lower   = ..11
		//    central = ..19
		//    upper   = ..31
		// and means that 'central' is very close but less than
		// an integer ending with many zeros, and usually
		// the "round-up" logic hides the problem.
		if l == c+1 && c < u {
			c++
			cdigit = 0
			cup = false
		}
		trimmed++
		// Remember trimmed digits of c
		c0 = c0 && cNextDigit == 0
		cNextDigit = int(cdigit)
		lower, central, upper = l, c, u
	}
	// should we round up?
	if trimmed > 0 {
		cup = cNextDigit > 5 ||
			(cNextDigit == 5 && !c0) ||
			(cNextDigit == 5 && c0 && central&1 == 1)
	}
	if central < upper && cup {
		central++
	}
	return central, trimmed
}

// mult128bitPow10 takes a floating-point input with a 55-bit
// mantissa and multiplies it with 10^q. The resulting mantissa
// is m*P >> 119 where P is a 128-bit element of the power-of-ten table.
// It is typically 63 or 64-bit wide.
// The returned boolean is true is all trimmed bits were zero.
//
// That is:
//
//	m*2^e2 * round(10^q) = resM * 2^resE + ε
//	exact = ε == 0
func mult128bitPow10(m uint64, e2, q int, table *pow10Table) (resM uint64, resE int, exact bool) {
	if q == 0 {
		// P == 1<<127
		return m << 8, e2 - 8, true
	}
	if q < pow10MinExp || pow10MaxExp < q {
		// This never happens due to the range of the float64 exponent
		panic("pointtext: mult128bitPow10: power of 10 is out of range")
	}
	pow := table[q-pow10MinExp]
	if q < 0 {
		// Inverse powers of ten must be rounded up.
		pow[0] += 1
	}
	e2 += mulByLog10Log2(q) - 127 + 119

	// long multiplication
	l1, l0 := bits.Mul64(m, pow[0])
	h1, h0 := bits.Mul64(m, pow[1])
	mid, carry := bits.Add64(l1, h0, 0)
	h1 += carry
	return h1<<9 | mid>>55, e2, mid<<9 == 0 && l0 == 0
}

func divisibleByPower5(m uint64, k int) bool {
	if m == 0 {
		return true
	}
	for i := 0; i < k; i++ {
		if m%5 != 0 {
			return false
		}
		m /= 5
	}
	return true
}

// divmod1e9 computes quotient and remainder of division by 1e9 with the
// multiply-and-shift sequence the amd64 compiler emits for x / 1e9, so a
// 32-bit build needs no runtime uint64 division.
func divmod1e9(x uint64) (uint32, uint32) {
	hi, _ := bits.Mul64(x>>1, 0x89705f4136b4a598) // binary digits of 1e-9
	q := hi >> 28
	return uint32(q), uint32(x - q*1e9)
}

var uint32pow10 = [...]uint32{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// decimalLen returns the number of decimal digits of v, 0 for v = 0.
// bits.Len32(v)·1233/4096 is ⌊log₁₀ 2^Len⌋, which is either the digit
// count or one less; one comparison tells which.
func decimalLen(v uint32) int {
	t := bits.Len32(v) * 1233 >> 12
	if v >= uint32pow10[t] {
		t++
	}
	return t
}

// trailingZeros returns the number of trailing decimal zeros of v, 0 for
// v = 0.
func trailingZeros(v uint32) int {
	n := 0
	for v != 0 && v%10 == 0 {
		v /= 10
		n++
	}
	return n
}

// The rows of the power-of-ten table: 10^q for q in [pow10MinExp,
// pow10MaxExp], the range a float64's shortest conversion can ask for.
const (
	pow10MinExp = -348
	pow10MaxExp = +347
)

// pow10Table holds, for each q, the 128-bit mantissa of 10^q rounded
// down, as {low 64 bits, high 64 bits} with the top bit of the high half
// set. The binary exponent is implied: mult128bitPow10 derives it from q.
type pow10Table [pow10MaxExp - pow10MinExp + 1][2]uint64

// powersOfTen builds the table on first use, exactly with math/big: it
// equals the detailedPowersOfTen table strconv ships. 10^q for q ≥ 0 is
// shifted to 128 significant bits and truncated; for q < 0 the mantissa
// is ⌊2^(127+L) / 10^-q⌋, where L is the bit length of 10^-q, which lies
// strictly between 2^127 and 2^128.
var powersOfTen = sync.OnceValue(func() *pow10Table {
	var t pow10Table
	low := new(big.Int).SetUint64(math.MaxUint64)
	row := func(m *big.Int) [2]uint64 {
		lo := new(big.Int).And(m, low).Uint64()
		return [2]uint64{lo, new(big.Int).Rsh(m, 64).Uint64()}
	}
	ten := big.NewInt(10)
	p := big.NewInt(1) // 10^|q|
	m := new(big.Int)
	for q := 0; q <= max(pow10MaxExp, -pow10MinExp); q++ {
		if q > 0 {
			p.Mul(p, ten)
		}
		l := p.BitLen()
		if q <= pow10MaxExp {
			if l >= 128 {
				m.Rsh(p, uint(l-128))
			} else {
				m.Lsh(p, uint(128-l))
			}
			t[q-pow10MinExp] = row(m)
		}
		if q > 0 && -q >= pow10MinExp {
			m.Lsh(big.NewInt(1), uint(127+l))
			m.Quo(m, p)
			t[-q-pow10MinExp] = row(m)
		}
	}
	return &t
})
