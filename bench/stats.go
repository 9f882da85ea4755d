package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie beyond a tail
// percentile before it may be printed: with fewer, the "percentile" is one
// or two outliers and moves by tens of percent between identical runs.
const tailBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs with linear
// interpolation between closest ranks, or NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailAllowed reports whether the q-quantile of n samples has at least
// tailBeyond samples beyond it.
func tailAllowed(n int, q float64) bool {
	return float64(n)*(1-q) >= tailBeyond-1e-9 // 100·(1−0.9) is 9.999… in floating point
}

// highestTail returns the highest of p90, p99 and p99.9 that n samples
// support under the tailBeyond rule; ok is false when not even p90 does.
func highestTail(n int) (q float64, ok bool) {
	for _, c := range []float64{0.999, 0.99, 0.9} {
		if tailAllowed(n, c) {
			return c, true
		}
	}
	return 0, false
}

// relWorse is how much worse got is than base as a share of base, signed so
// that positive means worse in the metric's own direction.
func relWorse(base, got float64, lowerIsBetter bool) float64 {
	if base == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (got - base) / math.Abs(base)
	if !lowerIsBetter {
		d = -d
	}
	return d
}
