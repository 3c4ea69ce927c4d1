package main

import (
	"math"
	"sort"
)

// median returns the middle of xs, the mean of the two middle samples
// for an even count, and 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of xs by the nearest-rank rule:
// the smallest sample with at least a share q of the samples at or
// below it. n − ⌈q·n⌉ samples lie beyond it, so the 0.9-quantile of 100
// samples has exactly 10 beyond it. It returns 0 for no samples.
func nearestRank(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return sorted(xs)[k]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
