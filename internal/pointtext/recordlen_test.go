package pointtext

import (
	"math"
	"math/big"
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
// Their rounding intervals end on rounder numbers than random bit
// patterns' do, which is where the comparisons with the interval's ends
// decide the length.
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

// exponentSweep returns, at each of the 2,046 normal binary exponents,
// c = 2^52 (where the float below is half as far away as the one above),
// c = 2^53-1 and 32 random mantissas, both signs.
func exponentSweep(rng *rand.Rand) []float64 {
	var xs []float64
	for e := uint64(1); e <= 2046; e++ {
		add := func(c uint64) {
			b := e<<52 | c&(1<<52-1)
			xs = append(xs, math.Float64frombits(b), math.Float64frombits(b|1<<63))
		}
		add(1 << 52)
		add(1<<53 - 1)
		for i := 0; i < 32; i++ {
			add(rng.Uint64())
		}
	}
	return xs
}

func TestRecordLenMatchesFormatting(t *testing.T) {
	g := schubfachTable()
	check := func(x float64) {
		t.Helper()
		if got, want := floatLen(x, g), shortestLen(x); got != want {
			t.Fatalf("length of %v (bits %#016x) = %d, want %d (%q)",
				x, math.Float64bits(x), got, want, strconv.FormatFloat(x, 'g', -1, 64))
		}
	}
	for _, x := range hostileFloats() {
		check(x)
	}
	rng := rand.New(rand.NewSource(28))
	for _, x := range exponentSweep(rng) {
		check(x)
	}
	n := 300_000
	if testing.Short() {
		n = 50_000
	}
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

// TestSchubfachTableRows pins the rows of g at both ends of k's range
// and around k = 0 against math/big: g(k) must lie in (2^125, 2^126] and
// exceed 10^-k·2^-r by at most one, r = flog2pow10(-k) - 125.
func TestSchubfachTableRows(t *testing.T) {
	g := schubfachTable()
	lo, hi := new(big.Int).Lsh(big.NewInt(1), 125), new(big.Int).Lsh(big.NewInt(1), 126)
	for _, k := range []int{kMin, kMin + 1, kMin + 2, -1, 0, 1, kMax - 2, kMax - 1, kMax} {
		row := g[k-kMin]
		gk := new(big.Int).Lsh(new(big.Int).SetUint64(row[0]), 64)
		gk.Or(gk, new(big.Int).SetUint64(row[1]))
		if gk.Cmp(lo) <= 0 || gk.Cmp(hi) > 0 {
			t.Errorf("g(%d) = %#x, outside (2^125, 2^126]", k, gk)
			continue
		}
		// x = 10^-k·2^-r as an exact rational
		r := flog2pow10(-k) - 125
		x := new(big.Rat).SetInt(big.NewInt(1))
		ten := new(big.Rat).SetInt64(10)
		for i := 0; i < abs(k); i++ {
			if k < 0 {
				x.Mul(x, ten)
			} else {
				x.Quo(x, ten)
			}
		}
		two := new(big.Rat).SetInt64(2)
		for i := 0; i < abs(r); i++ {
			if r < 0 {
				x.Mul(x, two)
			} else {
				x.Quo(x, two)
			}
		}
		gRat := new(big.Rat).SetInt(gk)
		below := new(big.Rat).Sub(gRat, new(big.Rat).SetInt64(1))
		if x.Cmp(gRat) >= 0 || x.Cmp(below) < 0 {
			t.Errorf("g(%d) = %#x is not ⌊10^-k·2^-r⌋ + 1 (r = %d)", k, gk, r)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
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
	// Where a Schubfach length goes wrong first: the two smallest
	// subnormals' classes (5e-324, 8e-323), a power of two at c = 2^52
	// with its neighbours, and decimals whose nearest neighbour decides.
	pow2 := math.Float64bits(0x1p-900)
	f.Add(uint64(0x1), uint64(0x10))
	f.Add(pow2, pow2-1)
	f.Add(pow2+1, math.Float64bits(1e23))
	f.Add(math.Float64bits(9007199254740993), math.Float64bits(-1e23))
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
