package pointtext

// The length of a text record, computed without writing it.
//
// RecordLen needs, per coordinate, only what strconv's shortest 'g'
// formatting decides before it writes a character: the number of
// significant digits nd and the decimal point position dp of the shortest
// decimal that parses back to the coordinate. floatLen turns (nd, dp) into
// the length of the %e or %f form the way strconv's formatDigits chooses
// between them.
//
// For a normal coordinate, shortestDecimal finds (nd, dp) with Schubfach
// (Giulietti, "The Schubfach way to render doubles", 2020), reduced to the
// length. For v = c·2^q it takes the decimal exponent k that leaves
// s = ⌊v/10^k⌋ with 16 or 17 digits and computes v and the two ends of
// its rounding interval, scaled by 4/10^k, as three 64×128-bit products
// with the table entry g(k) ≈ 10^-k, each rounded to odd. The interval is
// narrower than 10 units of 10^k, so it holds at most one multiple of
// ten. If it holds exactly one of 10⌊s/10⌋ and 10⌊s/10⌋+10, that multiple
// is the shortest decimal, and its trailing zeros come off. Otherwise no
// decimal shorter than s lies in the interval. Then s or s+1 does, and
// whichever does is no multiple of ten, so it has s's digit count: the
// paper's last step, which picks the one nearer to v when both do, cannot
// change the length and is left out.
//
// Exact integers below 2^53 take strconv's integer path: their digits are
// the integer's own. Subnormals, ±0, ±Inf and NaN, rare in data, are
// formatted by strconv on a stack buffer and measured: the digit counts
// above rest on the 16 or 17 digits of s that a mantissa c ≥ 2^52 gives,
// and a subnormal's s has fewer.

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// RecordLen returns len(AppendRecord(nil, p)) without formatting p: the
// shortest 'g' length of every coordinate plus one space between each
// two. It holds for every float64, NaN, ±Inf, ±0 and subnormals included.
func RecordLen(p []float64) int {
	if len(p) == 0 {
		return 0
	}
	g := schubfachTable()
	n := len(p) - 1 // the separators
	for _, x := range p {
		n += floatLen(x, g)
	}
	return n
}

// floatLen is len(strconv.AppendFloat(nil, x, 'g', -1, 64)).
func floatLen(x float64, g *gTable) int {
	b := math.Float64bits(x)
	exp := int(b>>52) & 0x7ff
	if exp == 0 || exp == 0x7ff {
		var buf [32]byte
		return len(strconv.AppendFloat(buf[:0], x, 'g', -1, 64))
	}
	neg := int(b >> 63)
	nd, dp := shortestDecimal(b&(1<<52-1)|1<<52, exp-1075, g)

	// formatDigits' rule for shortest 'g': %e when the decimal exponent
	// is below -4 or at least 6 (eprec = 6), %f otherwise.
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
// dp of the shortest decimal that parses back to the normal float64
// c×2^q (2^52 ≤ c < 2^53): the number is 0.d₁…d_nd × 10^dp, as strconv
// leaves it before formatting.
func shortestDecimal(c uint64, q int, g *gTable) (nd, dp int) {
	if q <= 0 && bits.TrailingZeros64(c) >= -q {
		// An exact integer below 2^53: strconv writes its digits.
		m := c >> uint(-q)
		for m%10 == 0 {
			m /= 10
			dp++
		}
		for ; m != 0; m /= 10 {
			nd++
		}
		return nd, nd + dp
	}

	// The rounding interval, in quarter units of 2^q: [cbl, cbr] around
	// cb = 4c, its ends included when c is even (round half to even). At
	// c = 2^52 the float below is half as far away as the one above,
	// except at the smallest exponent, where the subnormals continue the
	// spacing.
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == qMin {
		cbl, k = cb-2, flog10pow2(q)
	} else {
		cbl, k = cb-1, flog10threeQuartersPow2(q)
	}
	// (x<<h)·g(k)·2^-127 is x·2^q/10^k up to g(k)'s excess; h lies in
	// [2, 5], so x<<h stays below 2^61.
	h := uint(q + flog2pow10(-k) + 2)
	gk := &g[k-kMin]
	vb := roundToOdd(gk, cb<<h)
	vbl := roundToOdd(gk, cbl<<h)
	vbr := roundToOdd(gk, cbr<<h)

	s := vb >> 2 // ⌊v/10^k⌋, 16 or 17 digits
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		d := sp10
		if wpin {
			d = tp10
		}
		nd = digits(d)
		dp = nd + k
		for d%10 == 0 {
			d /= 10
			nd--
		}
		return nd, dp
	}
	nd = digits(s)
	return nd, nd + k
}

// digits returns the digit count of v, a number in [10^15, 10^17).
func digits(v uint64) int {
	if v >= 1e16 {
		return 17
	}
	return 16
}

// roundToOdd returns cp·g·2^-127 rounded to odd: the integer part, with
// its lowest bit set when the fraction is not zero. The fraction is read
// without the low 64 bits of the product: g's excess of at most one adds
// less than cp < 2^64 there, and counting it would mark an exact scaled
// value inexact. The rounding keeps the comparisons of the scaled
// interval ends exact.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)  // the low half of g
	y1, y0 := bits.Mul64(g[0], cp) // the high half
	mid, carry := bits.Add64(y0, x1, 0)
	// cp·g = (y1+carry)·2^128 + mid·2^64 + the dropped low bits
	v := (y1+carry)<<1 | mid>>63
	if mid<<1 != 0 {
		v |= 1
	}
	return v
}

// flog10pow2 returns ⌊q·log₁₀2⌋ for a normal float64's q in [-1074, 971].
func flog10pow2(q int) int {
	return int(int64(q) * 661_971_961_083 >> 41)
}

// flog10threeQuartersPow2 returns ⌊log₁₀(¾·2^q)⌋ for q in [-1073, 971].
func flog10threeQuartersPow2(q int) int {
	return int((int64(q)*661_971_961_083 - 274_743_187_321) >> 41)
}

// flog2pow10 returns ⌊e·log₂10⌋ for e in [-kMax, -kMin].
func flog2pow10(e int) int {
	return int(int64(e) * 913_124_641_741 >> 38)
}

// The smallest q of a normal float64 c×2^q, and the range of the decimal
// exponent k that shortestDecimal takes for q in [qMin, 971].
const (
	qMin = -1074
	kMin = -324 // flog10pow2(qMin)
	kMax = 292  // flog10pow2(971)
)

// gTable holds g(k) for k in [kMin, kMax] as {high 64 bits, low 64 bits}:
// g(k) = ⌊10^-k·2^-r⌋ + 1 with r = flog2pow10(-k) - 125, which puts g(k)
// in (2^125, 2^126], an upper approximation of 10^-k that is at most one
// unit too large.
type gTable [kMax - kMin + 1][2]uint64

// schubfachTable builds the table on first use, exactly with math/big:
// with s = 125 - flog2pow10(-k), g(k) is ⌊10^-k·2^s⌋ + 1 for k ≤ 0, where
// 10^-k is an integer, and ⌊2^s/10^k⌋ + 1 for k > 0.
var schubfachTable = sync.OnceValue(func() *gTable {
	var t gTable
	low := new(big.Int).SetUint64(math.MaxUint64)
	one := big.NewInt(1)
	for k := kMin; k <= kMax; k++ {
		s := 125 - flog2pow10(-k)
		m := new(big.Int)
		switch {
		case k > 0:
			m.Lsh(one, uint(s))
			m.Quo(m, pow10(k))
		case s >= 0:
			m.Lsh(pow10(-k), uint(s))
		default:
			m.Rsh(pow10(-k), uint(-s))
		}
		m.Add(m, one)
		t[k-kMin] = [2]uint64{new(big.Int).Rsh(m, 64).Uint64(), new(big.Int).And(m, low).Uint64()}
	}
	return &t
})

// pow10 returns 10^n as a big.Int.
func pow10(n int) *big.Int {
	return new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(n)), nil)
}
