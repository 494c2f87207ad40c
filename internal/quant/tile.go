package quant

import "math"

// TileWidth is the activation quantization tile width used by
// DeepSeek-V3: activations are scaled per 1×128 tile along the inner
// (contraction) dimension, weights per 128×128 block (§3.1).
const TileWidth = 128

// ScaledTile is a quantized 1×TileWidth tile: the dequantized values
// (scale already applied) plus the per-tile scale that was used. Keeping
// the dequantized form makes error analysis direct; the scale is retained
// because the GEMM path needs it to model dequantization placement.
type ScaledTile struct {
	Values []float64 // dequantized values, each Scale × (an FP8 value)
	Scale  float64
}

// QuantizeTile quantizes one tile with a shared power-free scale chosen
// so the tile maximum maps to the format's maximum finite value. This is
// the "fine-grained quantization" of §3.1. A zero tile gets scale 1.
func QuantizeTile(f Format, tile []float64) ScaledTile {
	maxAbs := 0.0
	for _, x := range tile {
		maxAbs = math.Max(maxAbs, math.Abs(x))
	}
	scale := 1.0
	if maxAbs > 0 {
		scale = maxAbs / f.MaxFinite
	}
	out := ScaledTile{Values: make([]float64, len(tile)), Scale: scale}
	for i, x := range tile {
		out.Values[i] = f.Quantize(x/scale) * scale
	}
	return out
}

// QuantizeTileCodes quantizes one tile into raw format codes — the
// unscaled values the tensor cores consume — writing them into codes
// (same length as tile; may alias it) and returning the tile scale.
// This is the allocation-free form of QuantizeTile used by the GEMM
// hot path: dequantized value = code × scale.
func QuantizeTileCodes(f Format, tile, codes []float64) float64 {
	scale := tileScale(f, tile)
	for i, x := range tile {
		codes[i] = f.Quantize(x / scale)
	}
	return scale
}

// tileScale returns the shared scale mapping the tile's maximum
// magnitude onto the format's largest finite value (1 for a zero tile).
// The magnitude scan compares sign-masked bit patterns — IEEE-754
// magnitude order — instead of going through math.Max/math.Abs; the
// non-finite corner (NaN bit patterns order above Inf, while math.Max
// gives Inf precedence over NaN) rescans to reproduce the original
// semantics exactly.
func tileScale(f Format, tile []float64) float64 {
	var maxBits uint64
	for _, x := range tile {
		if b := math.Float64bits(x) &^ (1 << 63); b > maxBits {
			maxBits = b
		}
	}
	if maxBits > infBits {
		return nanMaxScale(f, tile)
	}
	return scaleFromMaxBits(f, maxBits)
}

const infBits = uint64(0x7ff) << 52

// scaleFromMaxBits finalizes a sign-masked bit-pattern magnitude scan
// into the tile/block scale. maxBits must be finite or exactly Inf;
// the NaN case (maxBits > infBits) is resolved by nanMaxScale.
func scaleFromMaxBits(f Format, maxBits uint64) float64 {
	if maxBits == 0 {
		return 1
	}
	return math.Float64frombits(maxBits) / f.MaxFinite
}

// nanMaxScale handles a magnitude scan that saw a NaN: math.Max gives
// an infinity precedence over NaN (so any Inf element still yields an
// Inf max and an Inf scale), while a NaN max fails the `maxAbs > 0`
// guard and leaves the scale at 1.
func nanMaxScale(f Format, tile []float64) float64 {
	for _, x := range tile {
		if math.IsInf(x, 0) {
			return math.Inf(1) / f.MaxFinite
		}
	}
	return 1
}

// QuantizeBlockCodesScratch quantizes m per blockRows×blockCols block
// (128×128 for DeepSeek-V3 weights) into raw format codes, writing them
// into codes (same shape as m) and returning one scale per block in
// block-row-major order: dequantized value = code × scale. The scale is
// applied once per promoted partial in GEMM inner loops rather than per
// element. Scales are appended to scratch[:0] (reallocating only if its
// capacity is short), so repeated GEMM calls reuse one buffer.
func QuantizeBlockCodesScratch(f Format, m *Matrix, blockRows, blockCols int, codes *Matrix, scratch []float64) []float64 {
	if codes.Rows != m.Rows || codes.Cols != m.Cols {
		panic("quant: QuantizeBlockCodesScratch shape mismatch")
	}
	blocksPerRow := (m.Cols + blockCols - 1) / blockCols
	blocksPerCol := (m.Rows + blockRows - 1) / blockRows
	scales := scratch[:0]
	if cap(scales) < blocksPerRow*blocksPerCol {
		scales = make([]float64, 0, blocksPerRow*blocksPerCol)
	}
	for br := 0; br < m.Rows; br += blockRows {
		rEnd := br + blockRows
		if rEnd > m.Rows {
			rEnd = m.Rows
		}
		for bc := 0; bc < m.Cols; bc += blockCols {
			cEnd := bc + blockCols
			if cEnd > m.Cols {
				cEnd = m.Cols
			}
			var maxBits uint64
			for r := br; r < rEnd; r++ {
				row := m.Row(r)[bc:cEnd]
				for _, x := range row {
					if b := math.Float64bits(x) &^ (1 << 63); b > maxBits {
						maxBits = b
					}
				}
			}
			var scale float64
			if maxBits > infBits {
				scale = 1
				for r := br; r < rEnd && scale == 1; r++ {
					scale = nanMaxScale(f, m.Row(r)[bc:cEnd])
				}
			} else {
				scale = scaleFromMaxBits(f, maxBits)
			}
			scales = append(scales, scale)
			for r := br; r < rEnd; r++ {
				src := m.Row(r)[bc:cEnd]
				dst := codes.Row(r)[bc:cEnd]
				for i, x := range src {
					dst[i] = f.Quantize(x / scale)
				}
			}
		}
	}
	return scales
}

// Matrix is a dense row-major float64 matrix. It is the carrier type for
// the GEMM and quantization experiments.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r.
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}
