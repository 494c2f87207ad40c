package quant

import (
	"math"
	"math/rand"
	"testing"
)

// PromotedDotProduct computes DotProduct's sum using the two-level
// accumulation strategy DeepGEMM uses on Hopper: the tensor-core (FP22)
// accumulator runs for promoteEvery elements, then the partial result is
// promoted into an FP32 accumulator and the register is cleared. With
// promoteEvery = 128 this matches DeepSeek-V3's fine-grained recipe, and
// neatly composes with the 1×128 tile scales: scale[i] multiplies each
// promoted partial (dequantization on CUDA cores, §3.1.1's "large
// dequantization overhead").
//
// scales must have one entry per promoteEvery-sized chunk (the last chunk
// may be short); pass nil for unit scales.
func (a Accumulator) PromotedDotProduct(x, y []float64, promoteEvery int, scales []float64) float64 {
	if len(x) != len(y) {
		panic("quant: PromotedDotProduct length mismatch")
	}
	if promoteEvery <= 0 {
		promoteEvery = len(x)
	}
	var total float32 // the CUDA-core FP32 accumulator
	chunk := 0
	for start := 0; start < len(x); start += promoteEvery {
		end := start + promoteEvery
		if end > len(x) {
			end = len(x)
		}
		partial := a.DotProduct(x[start:end], y[start:end])
		scale := 1.0
		if scales != nil {
			scale = scales[chunk]
		}
		total += float32(partial * scale)
		chunk++
	}
	return float64(total)
}

func fp8Vector(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = E4M3.Quantize(rng.NormFloat64())
	}
	return xs
}

func refDot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func TestFP32ReferenceAccumulatorIsAccurate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := fp8Vector(rng, 4096), fp8Vector(rng, 4096)
	got := FP32Reference().DotProduct(x, y)
	want := refDot(x, y)
	if math.Abs(got-want) > 1e-3*math.Abs(want)+1e-3 {
		t.Errorf("FP32 reference accumulator too lossy: %v vs %v", got, want)
	}
}

func TestHopperAccumulatorLosesPrecisionOnLongK(t *testing.T) {
	// §3.1.1: FP22 registers (13 mantissa bits) accumulate error as K
	// grows; the FP32-register configuration does not. The Hopper error
	// must be visibly larger.
	rng := rand.New(rand.NewSource(11))
	const k = 8192
	hopperErr, fp32Err := 0.0, 0.0
	for trial := 0; trial < 10; trial++ {
		x, y := fp8Vector(rng, k), fp8Vector(rng, k)
		want := refDot(x, y)
		hopperErr += math.Abs(HopperFP8().DotProduct(x, y) - want)
		fp32Err += math.Abs(FP32Reference().DotProduct(x, y) - want)
	}
	if hopperErr <= fp32Err {
		t.Errorf("expected Hopper FP22 accumulation to be lossier: hopper %v vs fp32 %v", hopperErr, fp32Err)
	}
}

func TestPromotionRecoversAccuracy(t *testing.T) {
	// DeepGEMM's fix: promote to an FP32 accumulator every 128 elements.
	// The promoted path must be much closer to the reference than the
	// raw FP22 path on long reductions.
	rng := rand.New(rand.NewSource(12))
	const k = 8192
	var raw, promoted float64
	for trial := 0; trial < 10; trial++ {
		x, y := fp8Vector(rng, k), fp8Vector(rng, k)
		want := refDot(x, y)
		raw += math.Abs(HopperFP8().DotProduct(x, y) - want)
		promoted += math.Abs(HopperFP8().PromotedDotProduct(x, y, 128, nil) - want)
	}
	if promoted*2 > raw {
		t.Errorf("promotion should cut accumulation error: raw %v, promoted %v", raw, promoted)
	}
}

func TestDotProductZeroVectors(t *testing.T) {
	x := make([]float64, 64)
	if got := HopperFP8().DotProduct(x, x); got != 0 {
		t.Errorf("zero dot product = %v", got)
	}
}

func TestDotProductShortGroup(t *testing.T) {
	// Lengths that do not divide the group size must still be handled.
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	got := HopperFP8().DotProduct(x, y)
	if math.Abs(got-32) > 0.01 {
		t.Errorf("short-group dot = %v, want 32", got)
	}
}

func TestDotProductLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	HopperFP8().DotProduct(make([]float64, 2), make([]float64, 3))
}

func TestPromotedDotProductScales(t *testing.T) {
	// Scales multiply each promoted 128-chunk, mirroring tile-wise
	// dequantization.
	x := make([]float64, 256)
	y := make([]float64, 256)
	for i := range x {
		x[i], y[i] = 1, 1
	}
	got := HopperFP8().PromotedDotProduct(x, y, 128, []float64{2, 3})
	if math.Abs(got-(128*2+128*3)) > 1e-3 {
		t.Errorf("scaled promoted dot = %v, want 640", got)
	}
}

func TestTruncateToRegisterBehaviour(t *testing.T) {
	a := Accumulator{GroupSize: 32, AlignFracBits: 13, RegisterMantBits: 13}
	// 1 + 2^-14 truncates to 1 in a 13-mantissa-bit register.
	v := 1 + math.Ldexp(1, -14)
	if got := a.truncateToRegister(v); got != 1 {
		t.Errorf("truncate(1+2^-14) = %v, want 1", got)
	}
	// 1 + 2^-13 is exactly representable.
	v = 1 + math.Ldexp(1, -13)
	if got := a.truncateToRegister(v); got != v {
		t.Errorf("truncate(1+2^-13) = %v, want %v", got, v)
	}
	if got := a.truncateToRegister(0); got != 0 {
		t.Errorf("truncate(0) = %v", got)
	}
}

func TestAlignedGroupSumTruncatesSmallAddends(t *testing.T) {
	a := HopperFP8()
	// With a dominant product of magnitude 2^0, addends below
	// 2^(0-13) are truncated away entirely.
	products := make([]float64, 32)
	products[0] = 1
	for i := 1; i < 32; i++ {
		products[i] = math.Ldexp(1, -15) // below the kept fraction range
	}
	got := a.alignedGroupSum(products)
	if got != 1 {
		t.Errorf("aligned sum = %v, want exactly 1 (small addends truncated)", got)
	}
	// An FP32-style alignment keeps them.
	wide := Accumulator{GroupSize: 32, AlignFracBits: 30, RegisterMantBits: 30}
	got = wide.alignedGroupSum(products)
	want := 1 + 31*math.Ldexp(1, -15)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("wide aligned sum = %v, want %v", got, want)
	}
}

func TestAccumulatorBiasIsNegative(t *testing.T) {
	// Truncation toward zero on positive sums biases the result low —
	// the systematic underestimate the paper attributes to FP22
	// accumulation. Check the direction of the bias on all-positive data.
	rng := rand.New(rand.NewSource(13))
	low := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, 2048)
		y := make([]float64, 2048)
		for i := range x {
			x[i] = E4M3.Quantize(math.Abs(rng.NormFloat64()) + 0.1)
			y[i] = E4M3.Quantize(math.Abs(rng.NormFloat64()) + 0.1)
		}
		if HopperFP8().DotProduct(x, y) < refDot(x, y) {
			low++
		}
	}
	if low < trials*3/4 {
		t.Errorf("expected systematic low bias, saw %d/%d low", low, trials)
	}
}
