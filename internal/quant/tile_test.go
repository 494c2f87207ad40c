package quant

import (
	"math"
	"math/rand"
	"testing"
)

// QuantizePerTensor quantizes with a single scale for the whole tensor —
// the coarse baseline the paper's fine-grained scheme improves on.
func QuantizePerTensor(f Format, xs []float64) ScaledTile {
	return QuantizeTile(f, xs)
}

func gaussianTile(rng *rand.Rand, n int, sigma float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * sigma
	}
	return xs
}

// rowTiles quantizes a row as 1×TileWidth tiles; the last may be short.
func rowTiles(f Format, row []float64) []ScaledTile {
	var tiles []ScaledTile
	for start := 0; start < len(row); start += TileWidth {
		tiles = append(tiles, QuantizeTile(f, row[start:min(start+TileWidth, len(row))]))
	}
	return tiles
}

// blockwise quantizes m per 128×128 block through
// QuantizeBlockCodesScratch and dequantizes each element as code × scale.
func blockwise(f Format, m *Matrix) (*Matrix, []float64) {
	q := NewMatrix(m.Rows, m.Cols)
	scales := QuantizeBlockCodesScratch(f, m, 128, 128, q, nil)
	blocksPerRow := (m.Cols + 127) / 128
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			q.Set(r, c, q.At(r, c)*scales[(r/128)*blocksPerRow+c/128])
		}
	}
	return q, scales
}

func TestQuantizeTileScaleMapsMaxToFormatMax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tile := gaussianTile(rng, TileWidth, 3)
	q := QuantizeTile(E4M3, tile)
	maxAbs := 0.0
	for _, x := range tile {
		maxAbs = math.Max(maxAbs, math.Abs(x))
	}
	if math.Abs(q.Scale-maxAbs/448) > 1e-15 {
		t.Errorf("scale = %v, want %v", q.Scale, maxAbs/448)
	}
	// The max-magnitude element must be exactly preserved (it maps to
	// the format's max finite value).
	for i, x := range tile {
		if math.Abs(x) == maxAbs && math.Abs(q.Values[i]) != maxAbs {
			t.Errorf("tile max not preserved: %v -> %v", x, q.Values[i])
		}
	}
}

func TestQuantizeTileErrorBound(t *testing.T) {
	// With a per-tile scale, every element's absolute error is bounded by
	// half an ulp at the tile max: |err| <= maxAbs * 2^-(mant) (loose).
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		tile := gaussianTile(rng, TileWidth, math.Exp(rng.NormFloat64()*3))
		q := QuantizeTile(E4M3, tile)
		maxAbs := 0.0
		for _, x := range tile {
			maxAbs = math.Max(maxAbs, math.Abs(x))
		}
		bound := maxAbs * math.Ldexp(1, -E4M3.MantBits)
		for i := range tile {
			if err := math.Abs(q.Values[i] - tile[i]); err > bound {
				t.Fatalf("tile error %v exceeds bound %v", err, bound)
			}
		}
	}
}

func TestQuantizeTileZero(t *testing.T) {
	q := QuantizeTile(E4M3, make([]float64, 8))
	if q.Scale != 1 {
		t.Errorf("zero tile scale = %v, want 1", q.Scale)
	}
	for _, v := range q.Values {
		if v != 0 {
			t.Errorf("zero tile should quantize to zeros, got %v", v)
		}
	}
}

func TestQuantizeRowTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	row := gaussianTile(rng, 300, 1) // 3 tiles: 128 + 128 + 44
	tiles := rowTiles(E4M3, row)
	if len(tiles) != 3 {
		t.Fatalf("expected 3 tiles, got %d", len(tiles))
	}
	if len(tiles[0].Values) != 128 || len(tiles[2].Values) != 44 {
		t.Errorf("tile lengths wrong: %d, %d", len(tiles[0].Values), len(tiles[2].Values))
	}
	// Tiles must be independent: scaling one region must not affect
	// another tile's scale.
	row2 := append([]float64(nil), row...)
	for i := 0; i < 128; i++ {
		row2[i] *= 1000
	}
	tiles2 := rowTiles(E4M3, row2)
	if tiles2[1].Scale != tiles[1].Scale {
		t.Error("tile scales are not independent across tiles")
	}
}

func TestFineGrainedBeatsPerTensorWithOutlier(t *testing.T) {
	// The motivation for tile-wise quantization: FP8 is a float format,
	// so a shared scale only hurts when it pushes small-magnitude tiles
	// into the subnormal/underflow range. LLM activations have exactly
	// that structure — outlier channels hundreds of times larger than
	// quiet channels. Build a row with one loud tile (outlier 300) and
	// three quiet tiles (σ=1e-4): per-tensor scaling must crush the
	// quiet tiles' relative precision; per-tile scaling must not.
	rng := rand.New(rand.NewSource(8))
	row := make([]float64, 512)
	copy(row[:128], gaussianTile(rng, 128, 1))
	row[0] = 300 // outlier pinning the global scale
	for i := 128; i < 512; i++ {
		row[i] = rng.NormFloat64() * 1e-4
	}
	meanRel := func(got []float64) float64 {
		var sum float64
		for i := range got {
			if row[i] == 0 {
				continue
			}
			sum += math.Abs(got[i]-row[i]) / math.Abs(row[i])
		}
		return sum / float64(len(got))
	}
	var fineVals []float64
	for _, tile := range rowTiles(E4M3, row) {
		fineVals = append(fineVals, tile.Values...)
	}
	coarse := QuantizePerTensor(E4M3, row)
	fineErr, coarseErr := meanRel(fineVals), meanRel(coarse.Values)
	if fineErr*5 > coarseErr {
		t.Errorf("fine-grained (mean rel err %v) should be far better than per-tensor (%v)", fineErr, coarseErr)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At mismatch")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 5 {
		t.Error("Row view wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone must be deep")
	}
}

func TestQuantizeBlockwiseShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMatrix(256, 200)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	q, scales := blockwise(E4M3, m)
	if q.Rows != 256 || q.Cols != 200 {
		t.Fatal("blockwise output shape wrong")
	}
	// 2 block-rows × 2 block-cols
	if len(scales) != 4 {
		t.Fatalf("expected 4 block scales, got %d", len(scales))
	}
	for i := range m.Data {
		if math.Abs(q.Data[i]-m.Data[i]) > math.Abs(m.Data[i])*0.07+1e-3 {
			t.Fatalf("blockwise error too large at %d: %v vs %v", i, q.Data[i], m.Data[i])
		}
	}
}

func TestQuantizeBlockwiseBlockIndependence(t *testing.T) {
	m := NewMatrix(256, 256)
	for i := range m.Data {
		m.Data[i] = 1
	}
	m.Set(0, 0, 1000) // outlier in block (0,0)
	q, scales := blockwise(E4M3, m)
	if len(scales) != 4 {
		t.Fatalf("expected 4 scales, got %d", len(scales))
	}
	// Blocks without the outlier keep exact 1s (1 is representable after
	// scaling by 1/448... the scale is 1/448 so codes are 448, exact).
	if got := q.At(200, 200); math.Abs(got-1) > 1e-12 {
		t.Errorf("outlier leaked across blocks: %v", got)
	}
	if scales[0] == scales[3] {
		t.Error("blocks should have distinct scales")
	}
}
