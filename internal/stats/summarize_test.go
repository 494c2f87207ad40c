package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// summarizeSorted is the definition SummarizeInPlace must reproduce
// bit for bit: the moments over xs in its given order, the quantile
// fields read off a sorted copy (NaN first, as sort.Float64s orders it),
// and Min and Max as math.Min and math.Max fold them: NaN when any
// sample is, unless an infinity of the matching sign is present.
func summarizeSorted(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	s := Summary{N: n, Mean: Mean(xs), Min: sorted[0], Max: sorted[n-1]}
	if math.IsNaN(s.Min) {
		if s.Max != math.Inf(1) {
			s.Max = s.Min
		}
		if slices.Contains(sorted, math.Inf(-1)) {
			s.Min = math.Inf(-1)
		}
	}
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(n))
	if n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	s.P50 = s.Median
	s.P95 = Percentile(xs, 95)
	s.P99 = Percentile(xs, 99)
	return s
}

// sameSummary reports the first field of got that is not bit-identical
// to want, counting every NaN as one value: the payload of a NaN that
// arithmetic makes (+Inf + -Inf, then NaN + NaN) depends on the operand
// order the compiler picks, and every report prints it as NaN.
func sameSummary(got, want Summary) (field string, ok bool) {
	if got.N != want.N {
		return "N", false
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Mean", got.Mean, want.Mean}, {"Std", got.Std, want.Std},
		{"Min", got.Min, want.Min}, {"Max", got.Max, want.Max},
		{"Median", got.Median, want.Median}, {"P50", got.P50, want.P50},
		{"P95", got.P95, want.P95}, {"P99", got.P99, want.P99},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) && !(math.IsNaN(f.got) && math.IsNaN(f.want)) {
			return f.name, false
		}
	}
	return "", true
}

// TestSummarizeInPlace: the report path hands SummarizeInPlace its own
// sample scratch, and the summary must match the copying definitions of
// Mean and Percentile whatever order selection leaves the slice in.
func TestSummarizeInPlace(t *testing.T) {
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
	// Sizes where the P95 and P99 ranks land on integers, and one past
	// the partition budget's reach for a sorted input.
	for _, n := range []int{101, 201, 1001, 4096} {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = float64(j / 3)
		}
		samples = append(samples, xs)
	}
	for i, xs := range samples {
		mut := append([]float64(nil), xs...)
		got := SummarizeInPlace(mut)
		if got.N != len(xs) {
			t.Fatalf("sample %d: N = %d, want %d", i, got.N, len(xs))
		}
		if len(xs) == 0 {
			continue
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if got.Mean != Mean(xs) || got.Min != sorted[0] || got.Max != sorted[len(sorted)-1] {
			t.Fatalf("sample %d: moments %+v disagree with the input", i, got)
		}
		for _, c := range []struct{ p, got float64 }{{50, got.P50}, {95, got.P95}, {99, got.P99}} {
			if want := Percentile(xs, c.p); c.got != want {
				t.Fatalf("sample %d: p%.0f = %v, want %v", i, c.p, c.got, want)
			}
		}
		if field, ok := sameSummary(got, summarizeSorted(xs)); !ok {
			t.Fatalf("sample %d: %s differs from the sorted reference", i, field)
		}
	}
}

// decodeSamples turns fuzz bytes into a sample: each value starts with a
// tag byte choosing NaN, ±Inf, a repeat of the previous value, a small
// integer (ties), or a float64 read from the next eight bytes. Every NaN
// is math.NaN() and -0 becomes +0: sort.Float64s leaves equal values in
// an unspecified order, so only values that compare equal with equal
// bits give the reference a single answer. Latency samples are
// differences of non-negative times and never produce -0.
func decodeSamples(data []byte) []float64 {
	var xs []float64
	for len(data) > 0 && len(xs) < 1<<12 {
		tag := data[0]
		data = data[1:]
		var x float64
		switch tag % 8 {
		case 0:
			x = math.NaN()
		case 1:
			x = math.Inf(1)
		case 2:
			x = math.Inf(-1)
		case 3:
			if len(xs) > 0 {
				x = xs[len(xs)-1]
			}
		case 4:
			x = float64(tag>>3) - 8
		default:
			if len(data) < 8 {
				data = nil
				continue
			}
			x = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if math.IsNaN(x) {
				x = math.NaN()
			}
		}
		if x == 0 {
			x = 0
		}
		xs = append(xs, x)
	}
	return xs
}

// FuzzSummarize checks SummarizeInPlace against the copy-and-sort
// reference bit for bit on arbitrary samples: ties, infinities, NaNs
// and the smallest sizes, where the percentile ranks coincide.
func FuzzSummarize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4 | 9<<3})                                    // n=1
	f.Add([]byte{4 | 9<<3, 4 | 2<<3})                          // n=2
	f.Add([]byte{0, 4, 1, 2, 3, 0})                            // NaN, ±Inf, ties
	f.Add([]byte{1, 2})                                        // -Inf and +Inf: NaN mean
	f.Add([]byte{4 | 3<<3, 3, 3, 4 | 1<<3, 3, 4 | 3<<3, 3, 3}) // heavy ties
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 5, 0, 0, 0, 0, 0, 0, 0, 0x40, 0})
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{20, 101, 300} {
		data := make([]byte, 0, 9*n)
		for i := 0; i < n; i++ {
			data = append(data, 5)
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(rng.ExpFloat64()))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := decodeSamples(data)
		want := summarizeSorted(xs)
		got := SummarizeInPlace(append([]float64(nil), xs...))
		if field, ok := sameSummary(got, want); !ok {
			t.Fatalf("%s differs on %v:\n got %+v\nwant %+v", field, xs, got, want)
		}
	})
}

// BenchmarkSummarize summarizes 250K latency-like samples, the size of
// one fleet run's TTFT vector. Each op first restores the unsorted
// sample (a 2 MB copy), since the summary reorders it.
func BenchmarkSummarize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 250_000)
	for i := range src {
		src[i] = 0.05 + 0.2*rng.ExpFloat64()
	}
	xs := make([]float64, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(xs, src)
		SummarizeInPlace(xs)
	}
}
