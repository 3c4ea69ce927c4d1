// Package stats provides the small statistical helpers the experiment
// harness uses: geometric means, percentiles and histogram summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Geomean returns the geometric mean of positive values. Non-positive
// values make the result 0.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedPercentile(sortedCopy(xs), p)
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// sortedPercentile is Percentile over already-sorted, non-empty samples.
func sortedPercentile(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Min and Max return extrema (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary bundles the usual descriptive statistics.
type Summary struct {
	N             int
	Mean, Geomean float64
	Min, P50, P90 float64
	Max           float64
}

// Summarize computes a Summary.
func Summarize(xs []float64) Summary {
	return Summary{
		N:       len(xs),
		Mean:    Mean(xs),
		Geomean: Geomean(xs),
		Min:     Min(xs),
		P50:     Percentile(xs, 50),
		P90:     Percentile(xs, 90),
		Max:     Max(xs),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f geomean=%.3f min=%.3f p50=%.3f p90=%.3f max=%.3f",
		s.N, s.Mean, s.Geomean, s.Min, s.P50, s.P90, s.Max)
}

// Histogram counts values into equal-width bins over [lo, hi).
func Histogram(xs []float64, lo, hi float64, bins int) []int {
	counts := make([]int, bins)
	if bins == 0 || hi <= lo {
		return counts
	}
	w := (hi - lo) / float64(bins)
	for _, x := range xs {
		if x < lo || x >= hi {
			continue
		}
		counts[int((x-lo)/w)]++
	}
	return counts
}
