// Package stats provides the small statistics toolkit shared by the
// experiments: summaries and error metrics (relative error, normwise
// relative error, SNR). The quantization studies in the paper (§3.1,
// §3.2) are phrased in terms of relative accuracy loss and
// signal-to-noise ratios; this package defines those measurements once
// so every experiment uses the same definitions.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary holds the usual descriptive statistics of a sample,
// including the tail percentiles every latency report needs.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // population standard deviation
	Min    float64
	Max    float64
	Median float64
	P50    float64
	P95    float64
	P99    float64
}

// SummarizeSorting computes a Summary over xs, or a zero Summary for
// an empty sample. The order-sensitive moments (sum, variance) are
// computed over xs as given, then xs itself is sorted in place for the
// quantile fields, so the caller's slice is reordered. Report builders
// that own their sample scratch use this to keep percentile assembly
// allocation-free; pass a copy to keep the input order.
func SummarizeSorting(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		s.Median = xs[mid]
	} else {
		s.Median = (xs[mid-1] + xs[mid]) / 2
	}
	s.P50 = s.Median // percentileSorted(sorted, 50) reduces to the median for every n
	s.P95 = percentileSorted(xs, 95)
	s.P99 = percentileSorted(xs, 99)
	return s
}

// ErrMismatchedLengths is returned when two samples that must align do not.
var ErrMismatchedLengths = errors.New("stats: mismatched sample lengths")

// RelativeError returns |got-want| / |want|. When want is zero it returns
// |got| so that exact zeros compare as zero error.
func RelativeError(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// RMSRelativeError returns ||got-want||_2 / ||want||_2, the normwise
// relative error used for GEMM accuracy comparisons.
func RMSRelativeError(got, want []float64) (float64, error) {
	if len(got) != len(want) {
		return 0, ErrMismatchedLengths
	}
	var num, den float64
	for i := range got {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num), nil
	}
	return math.Sqrt(num / den), nil
}

// SNRdB returns the signal-to-noise ratio, in decibels, of a quantized
// sample vs its reference: 10*log10(sum(x^2)/sum((x-q)^2)). Higher is
// better; +inf when the reconstruction is exact.
func SNRdB(reference, quantized []float64) (float64, error) {
	if len(reference) != len(quantized) {
		return 0, ErrMismatchedLengths
	}
	var sig, noise float64
	for i := range reference {
		sig += reference[i] * reference[i]
		d := reference[i] - quantized[i]
		noise += d * d
	}
	if noise == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(sig/noise), nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile over an already-sorted non-empty
// sample.
func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
