package pointtext

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// shortestLen is the definition RecordLen must meet per coordinate.
func shortestLen(x float64) int {
	return len(strconv.AppendFloat(nil, x, 'g', -1, 64))
}

// hostileFloats returns the values where a shortest-digit computation
// goes wrong first: signed zeros, the subnormal and normal extremes,
// every power of two and of ten with its neighbours one ulp away,
// integers around 2^53 (where the exact-integer path ends), and NaN
// payloads of both signs.
func hostileFloats() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0_dead_beef_0001),
		math.Float64frombits(0xfff8_0000_0000_0001),
		math.Float64frombits(0xfff0_0000_0000_0001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
		math.MaxFloat64, -math.MaxFloat64,
		0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3, 5e-324, 1e23, 9007199254740993,
	}
	ulps := func(x float64) {
		xs = append(xs, x, -x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	for e := -1074; e <= 1023; e++ {
		ulps(math.Ldexp(1, e))
	}
	for q := -323; q <= 308; q++ {
		x, err := strconv.ParseFloat("1e"+strconv.Itoa(q), 64)
		if err != nil {
			panic(err)
		}
		ulps(x)
	}
	for _, base := range []float64{1 << 52, 1 << 53, 1 << 54} {
		for k := -64.0; k <= 64; k++ {
			xs = append(xs, base+k, -(base + k))
		}
	}
	for i := 0; i < 1000; i++ {
		xs = append(xs, float64(i), float64(i)/1000, float64(i)*1e6)
	}
	return xs
}

// shortDecimal draws a value with a short decimal form: 1–17 random
// significant digits at a random exponent, or a neighbour one ulp away.
// Their digit intervals straddle a multiple of 10^9 and end on rounder
// numbers than random bit patterns do, which is where the port's bound
// adjustments decide the length.
func shortDecimal(rng *rand.Rand) float64 {
	digits := make([]byte, 1+rng.Intn(17))
	for i := range digits {
		digits[i] = byte('0' + rng.Intn(10))
	}
	x, _ := strconv.ParseFloat(string(digits)+"e"+strconv.Itoa(rng.Intn(640)-330), 64)
	switch rng.Intn(3) {
	case 0:
		return math.Nextafter(x, 0)
	case 1:
		return math.Nextafter(x, math.Inf(1))
	}
	return x
}

// mixtureFloat draws a coordinate shaped like the benchmark's mixtures:
// a Gaussian around a center in [-50, 50).
func mixtureFloat(rng *rand.Rand) float64 {
	return float64(rng.Intn(100)-50) + rng.NormFloat64()*(0.5+rng.Float64()*4)
}

func TestRecordLenMatchesFormatting(t *testing.T) {
	pow := powersOfTen()
	check := func(x float64) {
		t.Helper()
		if got, want := floatLen(x, pow), shortestLen(x); got != want {
			t.Fatalf("length of %v (bits %#016x) = %d, want %d (%q)",
				x, math.Float64bits(x), got, want, strconv.FormatFloat(x, 'g', -1, 64))
		}
	}
	for _, x := range hostileFloats() {
		check(x)
	}
	n := 300_000
	if testing.Short() {
		n = 50_000
	}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < n; i++ {
		check(math.Float64frombits(rng.Uint64()))
		check(mixtureFloat(rng))
		check(shortDecimal(rng))
		// subnormals
		check(math.Float64frombits(rng.Uint64() & (1<<52 - 1)))
	}
}

func TestRecordLenIsAppendRecordLen(t *testing.T) {
	xs := hostileFloats()
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{0, 1, 2, 5, 16, 64} {
		for r := 0; r < 200; r++ {
			p := make([]float64, dim)
			for i := range p {
				if rng.Intn(2) == 0 {
					p[i] = xs[rng.Intn(len(xs))]
				} else {
					p[i] = mixtureFloat(rng)
				}
			}
			if got, want := RecordLen(p), len(AppendRecord(nil, p)); got != want {
				t.Fatalf("RecordLen(%v) = %d, want %d", p, got, want)
			}
		}
	}
}

// TestPowersOfTenRows pins rows of the generated table to strconv's
// detailedPowersOfTen: 10^0, 10^±1 and the two ends.
func TestPowersOfTenRows(t *testing.T) {
	tab := powersOfTen()
	for _, tc := range []struct {
		q      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x0000000000000000, 0x8000000000000000},
		{1, 0x0000000000000000, 0xA000000000000000},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := tab[tc.q-pow10MinExp]; got != [2]uint64{tc.lo, tc.hi} {
			t.Errorf("row 1e%d = {%#x, %#x}, want {%#x, %#x}", tc.q, got[0], got[1], tc.lo, tc.hi)
		}
	}
	for q, row := range tab {
		if row[1]>>63 != 1 {
			t.Errorf("row 1e%d is not normalized: %#x", q+pow10MinExp, row[1])
		}
	}
}

func TestDivmod1e9(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100_000; i++ {
		x := rng.Uint64() >> uint(rng.Intn(64))
		for _, v := range []uint64{x, 1e9 * (x >> 30), 1e9*(x>>30) - 1, math.MaxUint64 - x} {
			q, r := divmod1e9(v)
			if uint64(q) != uint64(uint32(v/1e9)) || uint64(r) != v%1e9 {
				t.Fatalf("divmod1e9(%d) = %d, %d", v, q, r)
			}
		}
	}
}

func TestDecimalLen(t *testing.T) {
	for v := uint64(0); v <= math.MaxUint32; v = v*3 + 1 {
		for _, w := range []uint64{v, v + 1, v - 1} {
			if w > math.MaxUint32 {
				continue // v-1 below 0, or past uint32
			}
			want := len(strconv.FormatUint(w, 10))
			if w == 0 {
				want = 0
			}
			if got := decimalLen(uint32(w)); got != want {
				t.Fatalf("decimalLen(%d) = %d, want %d", w, got, want)
			}
		}
	}
	for _, p := range uint32pow10 {
		for _, w := range []uint32{p - 1, p, p + 1} {
			want := len(strconv.FormatUint(uint64(w), 10))
			if w == 0 {
				want = 0
			}
			if got := decimalLen(w); got != want {
				t.Fatalf("decimalLen(%d) = %d, want %d", w, got, want)
			}
		}
	}
}

func FuzzRecordLen(f *testing.F) {
	xs := hostileFloats()
	for i := 0; i < len(xs); i += len(xs) / 64 {
		f.Add(math.Float64bits(xs[i]), math.Float64bits(-xs[i]))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		f.Add(rng.Uint64(), math.Float64bits(mixtureFloat(rng)))
	}
	f.Fuzz(func(t *testing.T, a, b uint64) {
		p := []float64{math.Float64frombits(a), math.Float64frombits(b)}
		for _, r := range [][]float64{p[:1], p[1:], p} {
			if got, want := RecordLen(r), len(AppendRecord(nil, r)); got != want {
				t.Fatalf("RecordLen(%v) (bits %#x %#x) = %d, want %d", r, a, b, got, want)
			}
		}
	})
}

var recordLenSink int

// BenchmarkRecordLen measures one 16-coordinate mixture record: RecordLen
// against AppendRecord, formatting the record to take its length.
func BenchmarkRecordLen(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	recs := make([][]float64, 1024)
	for i := range recs {
		recs[i] = make([]float64, 16)
		for j := range recs[i] {
			recs[i][j] = mixtureFloat(rng)
		}
	}
	b.Run("RecordLen", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			recordLenSink += RecordLen(recs[i%len(recs)])
		}
	})
	b.Run("AppendRecord", func(b *testing.B) {
		var buf []byte
		for i := 0; b.Loop(); i++ {
			buf = AppendRecord(buf[:0], recs[i%len(recs)])
			recordLenSink += len(buf)
		}
	})
}
