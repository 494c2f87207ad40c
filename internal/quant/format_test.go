package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestE4M3KnownValues(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{1, 1},
		{-1, -1},
		{448, 448},   // max finite
		{500, 448},   // saturates, no inf in E4M3 training convention
		{-500, -448}, // symmetric saturation
		{0.0625, 1.0 / 16},
		{1.0 / 512, 1.0 / 512},  // min subnormal 2^-9
		{1.0 / 2048, 0},         // below half of min subnormal rounds to 0
		{3.0 / 1024, 1.0 / 256}, // 2^-9 * 3 rounds within subnormal grid
		{240, 240},              // 1.875 * 128
		{17, 16},                // RNE: halfway between 16 and 18 -> 16
		{19, 20},                // RNE: halfway between 18 and 20 -> 20
	}
	for _, c := range cases {
		if got := E4M3.Quantize(c.in); got != c.want {
			t.Errorf("E4M3.Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestE5M2KnownValues(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{57344, 57344}, // max finite
		{1e9, 57344},   // saturates
		{1.25, 1.25},   // 1 + 1/4 exactly representable
		{1.1, 1.0},     // rounds to nearest of {1, 1.25}: 1.1 -> 1.0
		{1.2, 1.25},
		{math.Ldexp(1, -16), math.Ldexp(1, -16)}, // min subnormal
	}
	for _, c := range cases {
		if got := E5M2.Quantize(c.in); got != c.want {
			t.Errorf("E5M2.Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBF16MatchesFloat32Truncation(t *testing.T) {
	// BF16 is the top 16 bits of an IEEE float32 with RNE; cross-check
	// our generic minifloat against the bit-twiddling definition.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		x := rng.NormFloat64() * math.Exp(rng.NormFloat64()*8)
		want := bf16ViaBits(float32(x))
		got := BF16.Quantize(float64(float32(x)))
		if got != float64(want) {
			t.Fatalf("BF16 mismatch for %v: generic %v, bits %v", x, got, want)
		}
	}
}

func bf16ViaBits(f float32) float32 {
	u := math.Float32bits(f)
	// round-to-nearest-even on the low 16 bits
	r := u + 0x7fff + (u>>16)&1
	return math.Float32frombits(r &^ 0xffff)
}

func TestFormatMetadata(t *testing.T) {
	if E4M3.Bits() != 8 || E5M2.Bits() != 8 {
		t.Error("FP8 formats must be 8 bits wide")
	}
	if E5M6.Bits() != 12 {
		t.Errorf("E5M6 is 12 bits, got %d", E5M6.Bits())
	}
	if BF16.Bits() != 16 || FP16.Bits() != 16 {
		t.Error("16-bit formats must be 16 bits wide")
	}
	if E4M3.MinNormal() != math.Ldexp(1, -6) {
		t.Errorf("E4M3 min normal = %v", E4M3.MinNormal())
	}
	if E4M3.MinSubnormal() != math.Ldexp(1, -9) {
		t.Errorf("E4M3 min subnormal = %v", E4M3.MinSubnormal())
	}
	if E4M3.Epsilon() != 0.125 {
		t.Errorf("E4M3 epsilon = %v", E4M3.Epsilon())
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	formats := []Format{E4M3, E5M2, E5M6, FP16, BF16}
	for _, f := range formats {
		for i := 0; i < 2000; i++ {
			x := rng.NormFloat64() * math.Exp(rng.NormFloat64()*6)
			q := f.Quantize(x)
			if qq := f.Quantize(q); qq != q {
				t.Fatalf("%s not idempotent at %v: %v -> %v", f.Name, x, q, qq)
			}
		}
	}
}

func TestQuantizeMonotonic(t *testing.T) {
	// Rounding must be monotone: x <= y implies Q(x) <= Q(y).
	rng := rand.New(rand.NewSource(3))
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		x, y := a, b
		if x > y {
			x, y = y, x
		}
		return E4M3.Quantize(x) <= E4M3.Quantize(y)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuantizeSymmetric(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		return E4M3.Quantize(-x) == -E4M3.Quantize(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeErrorBound(t *testing.T) {
	// For values in the normal range, the relative error of RNE is at
	// most 2^-(mant+1) (half an ulp).
	rng := rand.New(rand.NewSource(4))
	for _, f := range []Format{E4M3, E5M2, BF16, FP16, E5M6} {
		bound := math.Ldexp(1, -f.MantBits-1) * (1 + 1e-12)
		for i := 0; i < 3000; i++ {
			x := (rng.Float64()*2 - 1) * f.MaxFinite * 0.9
			if math.Abs(x) < f.MinNormal() {
				continue
			}
			q := f.Quantize(x)
			rel := math.Abs(q-x) / math.Abs(x)
			if rel > bound {
				t.Fatalf("%s: relative error %v exceeds half-ulp bound %v at x=%v", f.Name, rel, bound, x)
			}
		}
	}
}

func TestQuantizeSpecials(t *testing.T) {
	if !math.IsNaN(E4M3.Quantize(math.NaN())) {
		t.Error("NaN should pass through")
	}
	if got := E4M3.Quantize(math.Inf(1)); got != 448 {
		t.Errorf("saturating format should clamp +inf to max, got %v", got)
	}
	if got := FP16.Quantize(math.Inf(1)); !math.IsInf(got, 1) {
		t.Errorf("IEEE-style format should keep +inf, got %v", got)
	}
	if got := FP16.Quantize(1e9); !math.IsInf(got, 1) {
		t.Errorf("IEEE-style overflow should go to +inf, got %v", got)
	}
}

func TestQuantizeSlice(t *testing.T) {
	src := []float64{0.1, 0.2, 0.3}
	dst := make([]float64, 3)
	E4M3.QuantizeSlice(dst, src)
	for i := range src {
		if dst[i] != E4M3.Quantize(src[i]) {
			t.Errorf("slice quantization mismatch at %d", i)
		}
	}
	// aliasing is allowed
	E4M3.QuantizeSlice(src, src)
	for i := range src {
		if src[i] != dst[i] {
			t.Errorf("aliased quantization mismatch at %d", i)
		}
	}
}

func TestQuantizeSliceLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched lengths")
		}
	}()
	E4M3.QuantizeSlice(make([]float64, 2), make([]float64, 3))
}

// Every positive E4M3 code must round-trip through Quantize: enumerate
// all 126 positive finite values directly from the bit layout.
func TestE4M3ExhaustiveRoundTrip(t *testing.T) {
	var values []float64
	for expField := 0; expField <= 15; expField++ {
		for mant := 0; mant < 8; mant++ {
			if expField == 15 && mant == 7 {
				continue // NaN code
			}
			var v float64
			if expField == 0 {
				v = float64(mant) / 8 * math.Ldexp(1, -6)
			} else {
				v = (1 + float64(mant)/8) * math.Ldexp(1, expField-7)
			}
			values = append(values, v)
		}
	}
	if len(values) != 127 { // 126 nonzero + zero (mant 0 exp 0)
		t.Fatalf("expected 127 non-negative codes, got %d", len(values))
	}
	if values[len(values)-1] != 448 {
		t.Fatalf("max enumerated value = %v, want 448", values[len(values)-1])
	}
	for _, v := range values {
		if got := E4M3.Quantize(v); got != v {
			t.Errorf("E4M3 code %v not preserved (got %v)", v, got)
		}
	}
}
