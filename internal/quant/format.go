// Package quant implements the low-precision numerics from §3 of the
// paper, bit-exactly in software:
//
//   - the OCP FP8 formats (E4M3, E5M2) used for activations and weights,
//     plus the custom E5M6 format the paper mentions testing for the
//     combine stage, BF16 and FP16;
//   - fine-grained scaled quantization (tile-wise 1×128 for activations,
//     block-wise 128×128 for weights), as used by DeepSeek-V3's FP8
//     training recipe;
//   - a simulation of the Hopper tensor core accumulation path (§3.1.1):
//     32 mantissa products aligned to the maximum exponent, truncated to
//     13 fraction bits, accumulated into an FP22-style register
//     (1 sign / 8 exponent / 13 mantissa bits).
//
// Everything operates on float64 carriers: a float64 holds any FP8/BF16
// value exactly, so "quantize" means "round to the nearest representable
// value of the target format and return it as float64".
package quant

import "math"

// Format describes a binary minifloat format with subnormals.
type Format struct {
	Name     string
	ExpBits  int
	MantBits int
	Bias     int
	// MaxFinite is the largest finite representable magnitude. For E4M3
	// the all-ones mantissa in the top binade encodes NaN, so MaxFinite
	// is 448 rather than 480.
	MaxFinite float64
	// Saturate selects the ML-training convention of clamping overflow
	// to MaxFinite instead of producing infinity.
	Saturate bool
}

// The formats discussed in the paper. E4M3 is used for dispatch/weights,
// E5M2 is the wide-range FP8 variant, E5M6 is the custom combine format
// under evaluation in §3.2, BF16 is the baseline training precision.
var (
	E4M3 = Format{Name: "E4M3", ExpBits: 4, MantBits: 3, Bias: 7, MaxFinite: 448, Saturate: true}
	E5M2 = Format{Name: "E5M2", ExpBits: 5, MantBits: 2, Bias: 15, MaxFinite: 57344, Saturate: true}
	E5M6 = Format{Name: "E5M6", ExpBits: 5, MantBits: 6, Bias: 15, MaxFinite: (2 - 1.0/64) * 32768, Saturate: true}
	FP16 = Format{Name: "FP16", ExpBits: 5, MantBits: 10, Bias: 15, MaxFinite: 65504}
	BF16 = Format{Name: "BF16", ExpBits: 8, MantBits: 7, Bias: 127, MaxFinite: math.Ldexp(2-1.0/128, 127)}
	FP32 = Format{Name: "FP32", ExpBits: 8, MantBits: 23, Bias: 127, MaxFinite: math.MaxFloat32}
)

// MinNormal returns the smallest positive normal value of the format.
func (f Format) MinNormal() float64 { return math.Ldexp(1, 1-f.Bias) }

// MinSubnormal returns the smallest positive subnormal value.
func (f Format) MinSubnormal() float64 { return math.Ldexp(1, 1-f.Bias-f.MantBits) }

// Epsilon returns the relative spacing at 1.0 (2^-MantBits).
func (f Format) Epsilon() float64 { return math.Ldexp(1, -f.MantBits) }

// Bits returns the total storage width of the format, including sign.
func (f Format) Bits() int { return 1 + f.ExpBits + f.MantBits }

// Quantize rounds x to the nearest representable value (round-to-nearest-
// even), respecting subnormals and the format's overflow behaviour.
func (f Format) Quantize(x float64) float64 {
	// Fast path for format-normal finite x: rounding to MantBits bits of
	// the leading-1 mantissa is round-to-nearest-even at the float64
	// mantissa's (52-MantBits)-bit boundary, which the classic add-and-
	// mask carry trick computes directly — a mantissa overflow carries
	// into the exponent field exactly as the arithmetic version would.
	// Format-subnormal, float64-subnormal, zero, Inf and NaN inputs take
	// the general path; the overflow clamp below matches it bit for bit.
	bits := math.Float64bits(x)
	if e := int(bits>>52) & 0x7ff; e != 0 && e != 0x7ff && e-1023 >= 1-f.Bias && f.MantBits < 52 {
		drop := uint(52 - f.MantBits)
		r := bits + ((bits>>drop)&1 + (1<<(drop-1) - 1))
		r &^= 1<<drop - 1
		q := math.Float64frombits(r)
		if q > f.MaxFinite || q < -f.MaxFinite {
			if f.Saturate {
				if q > 0 {
					return f.MaxFinite
				}
				return -f.MaxFinite
			}
			return math.Inf(1) * q
		}
		return q
	}
	return f.quantizeSlow(x)
}

// quantizeSlow is the general quantization path: format-subnormal
// magnitudes, zeros, and non-finite values.
func (f Format) quantizeSlow(x float64) float64 {
	if x == 0 || math.IsNaN(x) {
		return x
	}
	sign := 1.0
	a := x
	if x < 0 {
		sign = -1
		a = -x
	}
	if math.IsInf(a, 0) {
		if f.Saturate {
			return sign * f.MaxFinite
		}
		return x
	}
	// a = frac × 2^exp with frac in [0.5, 1) => normalized exponent
	// exp-1, read straight from the float64 bit pattern (Frexp only for
	// float64-subnormal a, far below any format's quantum anyway).
	var normExp int
	if e := int(math.Float64bits(a)>>52) & 0x7ff; e != 0 {
		normExp = e - 1023
	} else {
		_, exp := math.Frexp(a)
		normExp = exp - 1
	}
	minNormExp := 1 - f.Bias
	qexp := normExp
	if qexp < minNormExp {
		qexp = minNormExp // subnormal range: fixed quantum
	}
	shift := qexp - f.MantBits
	var q float64
	if shift >= -1021 && shift <= 1022 {
		// quantum is a power of two, so multiplying by its inverse is
		// exact and bit-identical to dividing by it.
		quantum, invQuantum := pow2(shift), pow2(-shift)
		q = math.RoundToEven(a*invQuantum) * quantum
	} else {
		quantum := math.Ldexp(1, shift)
		q = math.RoundToEven(a/quantum) * quantum
	}
	if q > f.MaxFinite {
		if f.Saturate {
			q = f.MaxFinite
		} else {
			q = math.Inf(1)
		}
	}
	return sign * q
}

// QuantizeSlice writes the quantization of each src element into dst.
// dst and src may alias. It panics if the lengths differ, matching the
// stdlib copy-semantics expectation of equal-shaped buffers.
func (f Format) QuantizeSlice(dst, src []float64) {
	if len(dst) != len(src) {
		panic("quant: QuantizeSlice length mismatch")
	}
	for i, x := range src {
		dst[i] = f.Quantize(x)
	}
}
