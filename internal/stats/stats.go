// Package stats provides the small statistics toolkit shared by the
// experiments: summaries and error metrics (relative error, normwise
// relative error, SNR). The quantization studies in the paper (§3.1,
// §3.2) are phrased in terms of relative accuracy loss and
// signal-to-noise ratios; this package defines those measurements once
// so every experiment uses the same definitions.
//
// Percentile is the definition: linear interpolation between the
// closest ranks of a sorted copy. SummarizeInPlace, which the serving
// reports call on every run's latency vectors, reaches the same values
// by quickselect in linear expected time instead of sorting, and
// FuzzSummarize holds it to the sorted definition bit for bit (NaN
// sorts first, as in sort.Float64s).
package stats

import (
	"errors"
	"math"
	"math/bits"
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

// SummarizeInPlace computes a Summary over xs, or a zero Summary for
// an empty sample, using xs as its own scratch: the order-sensitive
// moments (sum, variance) are computed over xs as given, then the
// quantile fields are found by selection, which reorders xs. They equal
// what sorting a copy with sort.Float64s and indexing it gives (NaN
// sorts first; only -0 and +0, which compare equal, may trade places),
// in linear expected time and without allocating. Report builders that
// own their sample scratch use it; pass a copy to keep the input order.
func SummarizeInPlace(xs []float64) Summary {
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
	// A NaN anywhere makes the sum NaN, so a non-NaN sum proves the
	// sample NaN-free and the selection can compare with < alone.
	sel := selector{xs: xs}
	if math.IsNaN(sum) {
		sel.nans = nanFirst(xs)
		sel.start = sel.nans
	}
	// Rising ranks, each selected inside the suffix the previous one
	// left: the median, then P95, then P99.
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		s.Median, _ = sel.at(mid, false)
	} else {
		lo, hi := sel.at(mid-1, true)
		s.Median = (lo + hi) / 2
	}
	s.P50 = s.Median // percentileSorted(sorted, 50) reduces to the median for every n
	s.P95 = sel.percentile(95)
	s.P99 = sel.percentile(99)
	return s
}

// selector answers sorted-order queries over xs at non-decreasing ranks
// by quickselect on a shrinking suffix. Invariants: xs[:nans] are the
// NaNs, which sort.Float64s puts first, and every value in xs[:start]
// is at most every value in xs[start:], so a rank k >= start is found
// by selection in xs[start:] alone.
type selector struct {
	xs          []float64
	nans, start int
}

// at returns the values at sorted positions k and, when upper is set,
// k+1 (which must exist); k may not fall below the previous query's k.
func (s *selector) at(k int, upper bool) (v, next float64) {
	if k >= s.nans {
		selectNth(s.xs[s.start:], k-s.start)
		s.start = k
	}
	v = s.xs[k]
	if upper {
		// Position k+1 holds the smallest value right of k: a NaN while
		// k+1 is inside the NaN block, else the minimum of what follows.
		if k+1 < s.nans {
			next = s.xs[k+1]
		} else {
			next = minOf(s.xs[max(k+1, s.nans):])
		}
	}
	return v, next
}

// percentile is percentileSorted(sorted(xs), p) for 0 < p < 100, read
// through at.
func (s *selector) percentile(p float64) float64 {
	lo, frac := percentileRank(len(s.xs), p)
	if frac == 0 {
		v, _ := s.at(lo, false)
		return v
	}
	a, b := s.at(lo, true)
	return a*(1-frac) + b*frac
}

// nanFirst moves every NaN in xs to the front and returns their count.
func nanFirst(xs []float64) int {
	n := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[n] = xs[n], x
			n++
		}
	}
	return n
}

// minOf returns the smallest value of a non-empty NaN-free slice.
func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// selectNth reorders the NaN-free xs so that xs[k] holds the value a
// sort would put there, with xs[:k] <= xs[k] <= xs[k+1:]. It is Hoare's
// quickselect with a median-of-three pivot; a partition budget of
// twice the depth of a balanced split hands a pathological input to
// sort.Float64s, so the worst case stays O(n log n).
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); hi > lo; budget-- {
		if budget == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		p := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for p < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo:j+1] <= p <= xs[i:hi+1], and xs[j+1:i] all equal p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
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
	lo, frac := percentileRank(len(sorted), p)
	if frac == 0 {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// percentileRank places the p-th percentile (0 < p < 100) of n sorted
// samples: at position lo, or frac of the way from lo to lo+1.
func percentileRank(n int, p float64) (lo int, frac float64) {
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	return lo, rank - float64(lo)
}
