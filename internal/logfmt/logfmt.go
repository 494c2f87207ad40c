// Package logfmt implements the Logarithmic Floating-Point Format
// (LogFMT-nBit) communication-compression codec from §3.2 of the paper.
//
// A tile of m elements (1×128 in DeepSeek-V3) is encoded with n bits per
// element: one sign bit plus an (n-1)-bit magnitude code. The codec maps
// |x| into log space, lays a uniform grid between the tile's min and max
// log-magnitudes, and rounds *in the original linear space* (the paper
// found linear-space rounding important for unbiased activation
// quantization). Zero has the dedicated code 0. The representable range
// is clamped so min >= max - log(2^32), mirroring the paper's constraint
// that the dynamic range not exceed a 5-bit-exponent float's.
package logfmt

import (
	"math"
)

// rangeCap is log(2^32): the maximum allowed spread between the tile's
// max and min log-magnitudes (§3.2).
var rangeCap = math.Log(math.Exp2(32))

// Codec holds the per-tile configuration of a LogFMT-nBit encoder.
type Codec struct {
	// Bits is the total width n (sign bit included). The paper evaluates
	// n = 8 (same width as FP8) and n = 10.
	Bits int
}

// New returns a codec for LogFMT-nBit. Bits must be in [3, 16]; the
// magnitude field needs at least 2 bits to hold zero, min and max codes.
func New(bits int) Codec {
	if bits < 3 || bits > 16 {
		panic("logfmt: bits must be in [3,16]")
	}
	return Codec{Bits: bits}
}

// maxCode returns the largest magnitude code: 2^(n-1) - 1.
func (c Codec) maxCode() int { return 1<<(c.Bits-1) - 1 }

// Encoded is one encoded tile: packed sign+magnitude codes plus the
// tile's dynamic grid parameters (transmitted as side information, like
// FP8 scaling factors).
type Encoded struct {
	Codes []uint16 // sign in the top used bit, magnitude in the low bits
	Min   float64  // log-magnitude mapped to code 1
	Step  float64  // log-space grid step
	Bits  int
}

// Encode quantizes tile into LogFMT codes.
func (c Codec) Encode(tile []float64) Encoded {
	enc := Encoded{Codes: make([]uint16, len(tile)), Bits: c.Bits}
	// Pass 1: log-range of the nonzero magnitudes.
	minLog, maxLog := math.Inf(1), math.Inf(-1)
	for _, x := range tile {
		if x == 0 {
			continue
		}
		l := math.Log(math.Abs(x))
		minLog = math.Min(minLog, l)
		maxLog = math.Max(maxLog, l)
	}
	if math.IsInf(minLog, 1) { // all-zero tile
		enc.Min, enc.Step = 0, 0
		return enc
	}
	// Clamp the representable range to log(2^32), as the paper does, so
	// the format's dynamic range matches a 5-bit-exponent float.
	if minLog < maxLog-rangeCap {
		minLog = maxLog - rangeCap
	}
	enc.Min = minLog
	levels := c.maxCode() // codes 1..maxCode carry magnitudes
	if levels > 1 && maxLog > minLog {
		enc.Step = (maxLog - minLog) / float64(levels-1)
	}
	signBit := uint16(1) << uint(c.Bits-1)
	for i, x := range tile {
		if x == 0 {
			enc.Codes[i] = 0
			continue
		}
		code := c.encodeMagnitude(math.Abs(x), enc.Min, enc.Step)
		if x < 0 {
			code |= signBit
		}
		enc.Codes[i] = code
	}
	return enc
}

// encodeMagnitude maps |x| to the nearest grid level *in linear space*:
// the boundary between adjacent codes is the arithmetic midpoint of their
// decoded values, not the log-space midpoint.
func (c Codec) encodeMagnitude(a, minLog, step float64) uint16 {
	maxCode := c.maxCode()
	if step == 0 {
		return 1
	}
	kf := (math.Log(a)-minLog)/step + 1
	lo := int(math.Floor(kf))
	if lo < 1 {
		return 1
	}
	if lo >= maxCode {
		return uint16(maxCode)
	}
	vLo := math.Exp(minLog + float64(lo-1)*step)
	vHi := math.Exp(minLog + float64(lo)*step)
	if a-vLo > vHi-a { // linear-space nearest
		return uint16(lo + 1)
	}
	return uint16(lo)
}

// Decode reconstructs the tile: sign × exp(min + (K-1)·step), zero for
// code 0.
func (e Encoded) Decode() []float64 {
	out := make([]float64, len(e.Codes))
	signBit := uint16(1) << uint(e.Bits-1)
	magMask := signBit - 1
	for i, code := range e.Codes {
		mag := code & magMask
		if mag == 0 {
			out[i] = 0
			continue
		}
		v := math.Exp(e.Min + float64(mag-1)*e.Step)
		if code&signBit != 0 {
			v = -v
		}
		out[i] = v
	}
	return out
}

// Roundtrip is a convenience helper: encode then decode a tile.
func (c Codec) Roundtrip(tile []float64) []float64 { return c.Encode(tile).Decode() }
