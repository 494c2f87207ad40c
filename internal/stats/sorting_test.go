package stats

import (
	"math/rand"
	"testing"
)

// TestSummarizeSortingSortsInPlace: the report path hands
// SummarizeSorting its own sample scratch, which must come back sorted,
// while the summary matches the copying definitions of Mean and
// Percentile.
func TestSummarizeSortingSortsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	samples := [][]float64{
		nil,
		{},
		{1},
		{2, 1},
		{3, 1, 2, 2},
	}
	for i := 0; i < 50; i++ {
		xs := make([]float64, 1+rng.Intn(200))
		for j := range xs {
			xs[j] = rng.NormFloat64() * 100
		}
		samples = append(samples, xs)
	}
	for i, xs := range samples {
		mut := append([]float64(nil), xs...)
		got := SummarizeSorting(mut)
		if got.N != len(xs) {
			t.Fatalf("sample %d: N = %d, want %d", i, got.N, len(xs))
		}
		for j := 1; j < len(mut); j++ {
			if mut[j-1] > mut[j] {
				t.Fatalf("sample %d: slice not sorted at %d", i, j)
			}
		}
		if len(xs) == 0 {
			continue
		}
		if got.Mean != Mean(xs) || got.Min != mut[0] || got.Max != mut[len(mut)-1] {
			t.Fatalf("sample %d: moments %+v disagree with the input", i, got)
		}
		for _, c := range []struct{ p, got float64 }{{50, got.P50}, {95, got.P95}, {99, got.P99}} {
			if want := Percentile(xs, c.p); c.got != want {
				t.Fatalf("sample %d: p%.0f = %v, want %v", i, c.p, c.got, want)
			}
		}
	}
}
