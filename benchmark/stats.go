package benchmark

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count) without reordering the caller's slice. NaN for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean returns the arithmetic mean of xs. NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// rangeOverMedian is (max-min)/median: the repeatability figure the
// self-check prints for every end-to-end metric.
func rangeOverMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return (hi - lo) / median(xs)
}
