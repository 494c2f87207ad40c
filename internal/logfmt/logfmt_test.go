package logfmt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dsv3/internal/quant"
	"dsv3/internal/stats"
)

func gaussTile(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

func TestRoundtripZeroTile(t *testing.T) {
	c := New(8)
	out := c.Roundtrip(make([]float64, 16))
	for _, v := range out {
		if v != 0 {
			t.Fatalf("zero tile should decode to zeros, got %v", v)
		}
	}
}

func TestZeroCodeIsExact(t *testing.T) {
	c := New(8)
	tile := []float64{0, 1, -2, 0, 0.5}
	out := c.Roundtrip(tile)
	for i, x := range tile {
		if x == 0 && out[i] != 0 {
			t.Errorf("zero at %d decoded to %v", i, out[i])
		}
	}
}

func TestMinMaxEncodedExactly(t *testing.T) {
	// The tile min and max magnitudes sit exactly on grid points, so they
	// must round-trip to within floating-point noise.
	rng := rand.New(rand.NewSource(21))
	c := New(8)
	tile := gaussTile(rng, 128)
	minAbs, maxAbs := math.Inf(1), 0.0
	for _, x := range tile {
		a := math.Abs(x)
		minAbs = math.Min(minAbs, a)
		maxAbs = math.Max(maxAbs, a)
	}
	out := c.Roundtrip(tile)
	for i, x := range tile {
		a := math.Abs(x)
		if a == minAbs || a == maxAbs {
			if stats.RelativeError(math.Abs(out[i]), a) > 1e-12 {
				t.Errorf("extreme value %v decoded to %v", x, out[i])
			}
		}
	}
}

func TestSignPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := New(8)
	tile := gaussTile(rng, 128)
	out := c.Roundtrip(tile)
	for i := range tile {
		if tile[i]*out[i] < 0 {
			t.Errorf("sign flipped at %d: %v -> %v", i, tile[i], out[i])
		}
	}
}

func TestConstantTile(t *testing.T) {
	c := New(8)
	tile := []float64{2.5, 2.5, -2.5, 2.5}
	out := c.Roundtrip(tile)
	for i := range tile {
		if math.Abs(out[i]-tile[i]) > 1e-12*math.Abs(tile[i]) {
			t.Errorf("constant tile must be exact: %v -> %v", tile[i], out[i])
		}
	}
}

func TestRangeClamp(t *testing.T) {
	// A tile spanning more than 2^32 in magnitude has its min clamped;
	// the tiny value becomes representable only at the clamped floor.
	c := New(8)
	tile := []float64{1e10, 1e-10}
	enc := c.Encode(tile)
	if enc.Min < math.Log(1e10)-math.Log(math.Exp2(32))-1e-9 {
		t.Errorf("min not clamped: %v", enc.Min)
	}
	out := enc.Decode()
	if stats.RelativeError(out[0], 1e10) > 1e-9 {
		t.Errorf("max value should be exact, got %v", out[0])
	}
	// The small value is clamped up to the representable floor.
	if out[1] < 1e10/math.Exp2(32)*0.99 {
		t.Errorf("small value %v should be clamped to range floor", out[1])
	}
}

func TestMonotoneCodes(t *testing.T) {
	// Larger magnitudes must never get smaller codes.
	rng := rand.New(rand.NewSource(23))
	c := New(8)
	tile := gaussTile(rng, 128)
	enc := c.Encode(tile)
	type pair struct {
		a float64
		k uint16
	}
	var ps []pair
	magMask := uint16(1)<<7 - 1
	for i, x := range tile {
		ps = append(ps, pair{math.Abs(x), enc.Codes[i] & magMask})
	}
	for i := range ps {
		for j := range ps {
			if ps[i].a < ps[j].a && ps[i].k > ps[j].k {
				t.Fatalf("code ordering violated: |%v|->%d vs |%v|->%d", ps[i].a, ps[i].k, ps[j].a, ps[j].k)
			}
		}
	}
}

func TestLinearSpaceRounding(t *testing.T) {
	// Construct a two-point grid and check that the decision boundary is
	// the arithmetic midpoint, not the geometric one. Grid: min=log(1),
	// max=log(4) with 3 levels (use 3-bit codec: codes 1,2,3).
	c := New(3)
	// Tile containing 1 and 4 establishes the grid; levels are 1, 2, 4.
	probe := 1.45 // log-space midpoint of (1,2) is sqrt(2)≈1.414; linear is 1.5
	tile := []float64{1, 4, probe}
	out := c.Roundtrip(tile)
	// 1.45 > sqrt(2) (geometric midpoint) but < 1.5 (arithmetic): with
	// linear-space rounding it must map DOWN to 1.
	if out[2] != 1 {
		t.Errorf("1.45 should round to 1 under linear-space rounding, got %v", out[2])
	}
	tile2 := []float64{1, 4, 1.55}
	out2 := c.Roundtrip(tile2)
	if out2[2] != 2 {
		t.Errorf("1.55 should round to 2, got %v", out2[2])
	}
}

func TestLogFMT8BeatsFP8OnGaussianTiles(t *testing.T) {
	// §3.2's headline claim: at the same 8-bit width, LogFMT-8 has higher
	// accuracy than E4M3 or E5M2 (with per-tile scaling) on activations.
	rng := rand.New(rand.NewSource(24))
	var logErr, e4m3Err, e5m2Err float64
	for trial := 0; trial < 200; trial++ {
		tile := gaussTile(rng, 128)
		lg := New(8).Roundtrip(tile)
		q4 := quant.QuantizeTile(quant.E4M3, tile)
		q5 := quant.QuantizeTile(quant.E5M2, tile)
		a, _ := stats.RMSRelativeError(lg, tile)
		b, _ := stats.RMSRelativeError(q4.Values, tile)
		c, _ := stats.RMSRelativeError(q5.Values, tile)
		logErr += a
		e4m3Err += b
		e5m2Err += c
	}
	if logErr >= e4m3Err {
		t.Errorf("LogFMT-8 (%v) should beat E4M3 (%v)", logErr, e4m3Err)
	}
	if logErr >= e5m2Err {
		t.Errorf("LogFMT-8 (%v) should beat E5M2 (%v)", logErr, e5m2Err)
	}
}

func TestLogFMT10ApproachesBF16(t *testing.T) {
	// §3.2: at n=10 the combine stage behaves like BF16. Check the SNR
	// gap is small (LogFMT-10 within ~6 dB of BF16 on gaussian tiles).
	rng := rand.New(rand.NewSource(25))
	var snr10, snrBF float64
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		tile := gaussTile(rng, 128)
		lg := New(10).Roundtrip(tile)
		bf := make([]float64, len(tile))
		quant.BF16.QuantizeSlice(bf, tile)
		a, _ := stats.SNRdB(tile, lg)
		b, _ := stats.SNRdB(tile, bf)
		snr10 += a
		snrBF += b
	}
	snr10 /= trials
	snrBF /= trials
	// "Similar to BF16" in the paper means training-accuracy parity, not
	// identical SNR; empirically LogFMT-10 lands ~6 dB below BF16 on
	// gaussian tiles while LogFMT-8 is ~12 dB below. Require the 10-bit
	// variant to be within 8 dB — i.e. clearly in BF16's neighbourhood.
	if snr10 < snrBF-8 {
		t.Errorf("LogFMT-10 SNR %v dB too far below BF16 %v dB", snr10, snrBF)
	}
	snr8 := 0.0
	for trial := 0; trial < trials; trial++ {
		rng2 := rand.New(rand.NewSource(int64(trial)))
		tile := gaussTile(rng2, 128)
		lg := New(8).Roundtrip(tile)
		a, _ := stats.SNRdB(tile, lg)
		snr8 += a
	}
	snr8 /= trials
	if snr10 < snr8+6 {
		t.Errorf("LogFMT-10 (%v dB) should clearly beat LogFMT-8 (%v dB)", snr10, snr8)
	}
}

func TestQuantizationNearUnbiased(t *testing.T) {
	// Linear-space rounding keeps the quantizer's mean error near zero —
	// the "unbiased activation quantization" property the paper calls out.
	rng := rand.New(rand.NewSource(26))
	var sum, sumAbs float64
	n := 0
	for trial := 0; trial < 200; trial++ {
		tile := gaussTile(rng, 128)
		out := New(8).Roundtrip(tile)
		for i := range tile {
			sum += out[i] - tile[i]
			sumAbs += math.Abs(tile[i])
			n++
		}
	}
	meanErr := math.Abs(sum / float64(n))
	meanMag := sumAbs / float64(n)
	if meanErr > 0.002*meanMag {
		t.Errorf("mean quantization error %v too large vs mean magnitude %v", meanErr, meanMag)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	// Property: decode(encode(x)) has every element within one grid step
	// (in relative terms) of the original, unless range-clamped.
	rng := rand.New(rand.NewSource(27))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tile := gaussTile(r, 64)
		c := New(8)
		enc := c.Encode(tile)
		out := enc.Decode()
		relStep := math.Expm1(enc.Step) // exp(step)-1 ≈ max relative gap
		for i := range tile {
			if tile[i] == 0 {
				continue
			}
			if stats.RelativeError(out[i], tile[i]) > relStep+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadWidth(t *testing.T) {
	for _, bits := range []int{0, 2, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", bits)
				}
			}()
			New(bits)
		}()
	}
}

// The combine-stage compression runs over a token's hidden vector one
// 1×128 tile at a time.
func TestRoundtripTensorTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	xs := gaussTile(rng, 7168) // one DeepSeek-V3 hidden vector: 56 tiles
	c := New(8)
	var out []float64
	for start := 0; start < len(xs); start += 128 {
		out = append(out, c.Roundtrip(xs[start:start+128])...)
	}
	rel, err := stats.RMSRelativeError(out, xs)
	if err != nil {
		t.Fatal(err)
	}
	if rel > 0.05 {
		t.Errorf("tensor roundtrip error too high: %v", rel)
	}
}
