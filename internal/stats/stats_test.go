package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// summarize is SummarizeInPlace on a copy, leaving xs in its order.
func summarize(xs []float64) Summary {
	return SummarizeInPlace(append([]float64(nil), xs...))
}

func TestSummarizeBasic(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if s.Median != 2.5 {
		t.Errorf("median = %v, want 2.5", s.Median)
	}
	wantStd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 4)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, wantStd)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := summarize(nil); s.N != 0 {
		t.Errorf("empty summary should have N=0, got %+v", s)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s := summarize([]float64{5, 1, 3})
	if s.Median != 3 {
		t.Errorf("median = %v, want 3", s.Median)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(101, 100); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("RelativeError = %v, want 0.01", got)
	}
	if got := RelativeError(0.5, 0); got != 0.5 {
		t.Errorf("RelativeError with zero want = %v", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Errorf("RelativeError(0,0) = %v, want 0", got)
	}
}

func TestRMSRelativeError(t *testing.T) {
	got, err := RMSRelativeError([]float64{1.1, 2}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(0.01 / 5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RMSRelativeError = %v, want %v", got, want)
	}
}

func TestRMSRelativeErrorZeroReference(t *testing.T) {
	got, err := RMSRelativeError([]float64{0.3, 0.4}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("zero-reference error = %v, want 0.5", got)
	}
}

func TestSNRdB(t *testing.T) {
	ref := []float64{1, -1, 2, -2}
	exact, err := SNRdB(ref, ref)
	if err != nil || !math.IsInf(exact, 1) {
		t.Errorf("exact reconstruction should give +inf SNR, got %v (%v)", exact, err)
	}
	noisy := []float64{1.1, -1, 2, -2}
	snr, err := SNRdB(ref, noisy)
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * math.Log10(10/0.01)
	if math.Abs(snr-want) > 1e-9 {
		t.Errorf("SNR = %v, want %v", snr, want)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// An unsorted even-length sample interpolates between the middle ranks;
// an empty one yields zero.
func TestPercentiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {100, 4}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 99); got != 0 {
		t.Errorf("empty Percentile = %v, want 0", got)
	}
}

// Property: mean is within [min, max] and shifting the data shifts the
// mean while leaving std unchanged.
func TestSummaryProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n uint8, shiftRaw int8) bool {
		size := int(n%32) + 1
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		shift := float64(shiftRaw)
		s := summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		shifted := make([]float64, size)
		for i := range xs {
			shifted[i] = xs[i] + shift
		}
		s2 := summarize(shifted)
		return math.Abs(s2.Mean-(s.Mean+shift)) < 1e-6 && math.Abs(s2.Std-s.Std) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SNR is symmetric under scaling of both signals.
func TestSNRScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 16
		ref := make([]float64, n)
		q := make([]float64, n)
		for i := range ref {
			ref[i] = rng.NormFloat64()
			q[i] = ref[i] + 0.01*rng.NormFloat64()
		}
		s1, _ := SNRdB(ref, q)
		scaled := 3.7
		ref2 := make([]float64, n)
		q2 := make([]float64, n)
		for i := range ref {
			ref2[i] = ref[i] * scaled
			q2[i] = q[i] * scaled
		}
		s2, _ := SNRdB(ref2, q2)
		if math.Abs(s1-s2) > 1e-9 {
			t.Fatalf("SNR not scale-invariant: %v vs %v", s1, s2)
		}
	}
}

func TestSummaryPercentileFields(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i) // 0..100, reversed to exercise sorting
	}
	s := summarize(xs)
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 {
		t.Errorf("percentile fields = %v/%v/%v, want 50/95/99", s.P50, s.P95, s.P99)
	}
	if s.P50 != s.Median {
		t.Errorf("P50 %v != Median %v", s.P50, s.Median)
	}
}

func TestSummaryPercentilesMatchPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 37)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	s := summarize(xs)
	for _, c := range []struct{ p, got float64 }{{50, s.P50}, {95, s.P95}, {99, s.P99}} {
		if want := Percentile(xs, c.p); c.got != want {
			t.Errorf("Summary p%.0f = %v, want Percentile's %v", c.p, c.got, want)
		}
	}
}
