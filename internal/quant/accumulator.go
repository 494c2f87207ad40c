package quant

import "math"

// Accumulator simulates the tensor-core accumulation data path described
// in §3.1.1 of the paper. On Hopper, an FP8 WGMMA instruction multiplies
// FP8 operands exactly, then:
//
//  1. groups of GroupSize (32) products are aligned by right-shifting to
//     the maximum exponent in the group,
//  2. only the highest AlignFracBits (13) fraction bits of each aligned
//     product are kept; lower bits are truncated,
//  3. the group sum is accumulated into a register with RegisterMantBits
//     (13) mantissa bits — the "FP22" register (1 sign / 8 exp / 13 mant).
//
// Setting RegisterMantBits and AlignFracBits to 23 models a true FP32
// tensor-core accumulator; the §3.1.1 ablation runner sweeps these.
type Accumulator struct {
	// GroupSize is the number of products aligned and added as one unit.
	GroupSize int
	// AlignFracBits is the number of fraction bits kept, relative to the
	// largest exponent in the group, when aligning addends (13 on Hopper).
	AlignFracBits int
	// RegisterMantBits is the mantissa width of the accumulation register
	// (13 for Hopper's FP22 behaviour, 23 for FP32).
	RegisterMantBits int
	// RoundRegister selects round-to-nearest-even when folding into the
	// register. Hopper truncates, so the default (false) truncates.
	RoundRegister bool
}

// HopperFP8 is the accumulator configuration matching the paper's
// description of H800 FP8 tensor cores.
func HopperFP8() Accumulator {
	return Accumulator{GroupSize: 32, AlignFracBits: 13, RegisterMantBits: 13}
}

// FP32Reference is an accumulator with FP32-register behaviour — the
// "increased accumulation precision" hardware suggestion from §3.1.2.
func FP32Reference() Accumulator {
	return Accumulator{GroupSize: 32, AlignFracBits: 23, RegisterMantBits: 23}
}

// normExponent returns the normalized exponent of a finite non-zero v
// (v = ±frac·2^(e+1), frac in [0.5,1) — i.e. math.Frexp's exp minus 1)
// straight from the float64 bit pattern; subnormals fall back to Frexp.
func normExponent(v float64) int {
	e := int(math.Float64bits(v)>>52) & 0x7ff
	if e == 0 { // subnormal
		_, exp := math.Frexp(v)
		return exp - 1
	}
	return e - 1023
}

// pow2 builds 2^n directly from the exponent bits. n must lie in the
// normal range [-1022, 1023]; callers guard it. Unlike math.Ldexp this
// inlines to a shift and an add.
func pow2(n int) float64 { return math.Float64frombits(uint64(n+1023) << 52) }

// truncateToRegister rounds v to RegisterMantBits mantissa bits,
// truncating toward zero unless RoundRegister is set.
func (a Accumulator) truncateToRegister(v float64) float64 {
	// Normal-range fast path: exponent straight from the bit pattern,
	// zero / subnormal / Inf / NaN (e-field 0 or 0x7ff) drop to the
	// general path below.
	if e := int(math.Float64bits(v)>>52) & 0x7ff; e != 0 && e != 0x7ff {
		if shift := (e - 1023) - a.RegisterMantBits; shift >= -1021 && shift <= 1022 {
			// quantum is a power of two, so scaling by it (either way)
			// is exact: multiplying by the inverse matches dividing
			// bit-for-bit.
			quantum, invQuantum := pow2(shift), pow2(-shift)
			if a.RoundRegister {
				return math.RoundToEven(v*invQuantum) * quantum
			}
			return math.Trunc(v*invQuantum) * quantum
		}
	}
	return a.truncateToRegisterSlow(v)
}

func (a Accumulator) truncateToRegisterSlow(v float64) float64 {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	shift := normExponent(v) - a.RegisterMantBits
	if shift >= -1021 && shift <= 1022 {
		quantum, invQuantum := pow2(shift), pow2(-shift)
		if a.RoundRegister {
			return math.RoundToEven(v*invQuantum) * quantum
		}
		return math.Trunc(v*invQuantum) * quantum
	}
	quantum := math.Ldexp(1, shift)
	if a.RoundRegister {
		return math.RoundToEven(v/quantum) * quantum
	}
	return math.Trunc(v/quantum) * quantum
}

// alignedGroupSum adds one group of products with exponent alignment:
// every addend is truncated to AlignFracBits fraction bits relative to
// the group's maximum exponent.
func (a Accumulator) alignedGroupSum(products []float64) float64 {
	// The group's maximum exponent is the exponent of its largest-
	// magnitude element, and IEEE-754 magnitude order is the order of
	// the sign-masked bit patterns — one branch-predictable max per
	// element, no per-element exponent decoding.
	var maxBits uint64
	for _, p := range products {
		if b := math.Float64bits(p) &^ (1 << 63); b > maxBits {
			maxBits = b
		}
	}
	return a.groupSumWithMax(products, maxBits)
}

// groupSumWithMax is alignedGroupSum after the maximum-magnitude scan;
// maxBits is the largest sign-masked float64 bit pattern in products.
func (a Accumulator) groupSumWithMax(products []float64, maxBits uint64) float64 {
	if maxBits == 0 {
		return 0 // every product is exactly zero
	}
	maxE := int(maxBits >> 52)
	// The fast path needs a normal maximum (subnormal exponents take a
	// Frexp), and bounds under which the reassociated sum below is
	// provably exact and finite; real GEMM shapes never leave them.
	if maxE == 0 || maxE > 1000+1023 || a.AlignFracBits > 30 || len(products) > 1<<20 {
		return a.alignedGroupSumSlow(products)
	}
	maxExp := maxE - 1023
	shift := a.AlignFracBits - maxExp
	if shift < -1021 || shift > 1022 {
		return a.alignedGroupSumSlow(products)
	}
	// Each aligned addend Trunc(p·2^shift) is an integer of magnitude
	// < 2^(AlignFracBits+1), so partial sums of a group stay far inside
	// float64's exact integer range: every addition is exact, the sum
	// is associative, and one final multiply by the (power-of-two)
	// quantum is bit-identical to scaling each addend — the classic
	// sequential loop, reassociated for free. (Subnormal non-maximum
	// elements are fine here: power-of-two multiplication and division
	// are both correctly rounded to the same value, and Trunc keeps the
	// addends integral either way.)
	quantum, invQuantum := pow2(-shift), pow2(shift)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+3 < len(products); i += 4 {
		s0 += math.Trunc(products[i] * invQuantum)
		s1 += math.Trunc(products[i+1] * invQuantum)
		s2 += math.Trunc(products[i+2] * invQuantum)
		s3 += math.Trunc(products[i+3] * invQuantum)
	}
	for ; i < len(products); i++ {
		s0 += math.Trunc(products[i] * invQuantum)
	}
	return (s0 + s1 + s2 + s3) * quantum
}

// alignedGroupSumSlow is the fully general alignment loop: float64-
// subnormal products and out-of-range shifts (alignment quanta beyond
// the normal float64 range) are handled exactly as written.
func (a Accumulator) alignedGroupSumSlow(products []float64) float64 {
	maxExp := math.MinInt32
	for _, p := range products {
		// Exponent straight from the bit pattern (sign masked off);
		// e == 0 covers both zeros and subnormals.
		e := int(math.Float64bits(p)>>52) & 0x7ff
		if e == 0 {
			if p != 0 {
				if ne := normExponent(math.Abs(p)); ne > maxExp {
					maxExp = ne
				}
			}
			continue
		}
		if e-1023 > maxExp {
			maxExp = e - 1023
		}
	}
	if maxExp == math.MinInt32 {
		return 0
	}
	var sum float64
	if shift := a.AlignFracBits - maxExp; shift >= -1021 && shift <= 1022 {
		// Common case: 2^shift is a normal float64, so multiplying by the
		// inverse is exact and bit-identical to dividing by quantum.
		quantum, invQuantum := pow2(-shift), pow2(shift)
		for _, p := range products {
			sum += math.Trunc(p*invQuantum) * quantum
		}
		return sum
	}
	quantum := math.Ldexp(1, maxExp-a.AlignFracBits)
	for _, p := range products {
		sum += math.Trunc(p/quantum) * quantum
	}
	return sum
}

// DotProduct computes sum(x[i]*y[i]) through the simulated tensor-core
// path. The operands are expected to already be representable in the
// source format (e.g. FP8); products of two FP8 values are exact in
// float64, matching the hardware's exact multiplier array.
func (a Accumulator) DotProduct(x, y []float64) float64 {
	group := a.GroupSize
	if group <= 0 {
		group = 32
	}
	return a.DotProductScratch(x, y, make([]float64, 0, group))
}

// DotProductScratch is DotProduct with a caller-provided product buffer
// (capacity >= GroupSize), so GEMM inner loops run allocation-free. The
// arithmetic sequence is identical to DotProduct's.
func (a Accumulator) DotProductScratch(x, y, scratch []float64) float64 {
	if len(x) != len(y) {
		panic("quant: DotProduct length mismatch")
	}
	group := a.GroupSize
	if group <= 0 {
		group = 32
	}
	if cap(scratch) < group {
		scratch = make([]float64, group)
	}
	var acc float64
	for start := 0; start < len(x); start += group {
		end := start + group
		if end > len(x) {
			end = len(x)
		}
		xs := x[start:end]
		ys := y[start:end:end]
		products := scratch[:len(xs)]
		// One fused pass: form the exact products and track the largest
		// magnitude (max of sign-masked bit patterns = max |product|).
		var maxBits uint64
		for i, xv := range xs {
			p := xv * ys[i]
			products[i] = p
			if b := math.Float64bits(p) &^ (1 << 63); b > maxBits {
				maxBits = b
			}
		}
		acc = a.truncateToRegister(acc + a.groupSumWithMax(products, maxBits))
	}
	return acc
}
