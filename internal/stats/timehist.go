package stats

import (
	"fmt"
	"math"
	"sort"
)

// TimeHist accumulates a piecewise-constant signal (queue depth, busy
// lane count) weighted by how long each value was held, so summaries
// reflect *time at a level* rather than *number of transitions*. The
// event-driven serving simulator feeds it one (value, duration) pair per
// inter-event interval.
//
// The common signals are small non-negative integers (depths, lane
// counts), so their weight accumulates in a dense per-level array:
// memory stays O(max level) instead of O(events), and once the array has
// grown to the signal's range Add allocates nothing — the serving loop's
// steady state depends on that. Non-integer or out-of-range values spill
// into a sample list with the original behavior.
type TimeHist struct {
	dense   []float64 // dense[v] = time spent at integer level v
	values  []float64 // spill samples: non-integer or huge levels
	weights []float64
	total   float64
	max     float64
	sum     float64 // integral of value*dt
}

// timeHistDenseMax bounds the dense array so a wild sample cannot ask
// for gigabytes; levels at or beyond it spill.
const timeHistDenseMax = 1 << 16

// Add records that the signal held value for duration seconds. Zero or
// negative durations are ignored (zero-width intervals carry no weight).
func (h *TimeHist) Add(value, duration float64) {
	if duration <= 0 {
		return
	}
	h.total += duration
	h.sum += value * duration
	if value > h.max {
		h.max = value
	}
	if iv := int(value); float64(iv) == value && iv >= 0 && iv < timeHistDenseMax {
		for iv >= len(h.dense) {
			h.dense = append(h.dense, 0)
		}
		h.dense[iv] += duration
		return
	}
	h.values = append(h.values, value)
	h.weights = append(h.weights, duration)
}

// TotalTime returns the summed duration.
func (h *TimeHist) TotalTime() float64 { return h.total }

// Mean returns the time-weighted mean (0 when nothing was recorded).
func (h *TimeHist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / h.total
}

// Max returns the largest recorded value (0 when empty).
func (h *TimeHist) Max() float64 { return h.max }

// Percentile returns the value below which the signal spent p percent of
// the time (time-weighted percentile, 0 <= p <= 100). The walk merges
// the dense levels (already in value order) with the sorted spill
// samples.
func (h *TimeHist) Percentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	idx := make([]int, len(h.values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return h.values[idx[a]] < h.values[idx[b]] })
	target := p / 100 * h.total
	var acc float64
	si := 0
	lastV := math.Inf(-1)
	for v, w := range h.dense {
		if w == 0 {
			continue
		}
		fv := float64(v)
		for si < len(idx) && h.values[idx[si]] < fv {
			acc += h.weights[idx[si]]
			if acc >= target {
				return h.values[idx[si]]
			}
			si++
		}
		acc += w
		if acc >= target {
			return fv
		}
		lastV = fv
	}
	for si < len(idx) {
		acc += h.weights[idx[si]]
		if acc >= target {
			return h.values[idx[si]]
		}
		si++
	}
	if len(idx) > 0 && h.values[idx[len(idx)-1]] > lastV {
		return h.values[idx[len(idx)-1]]
	}
	return lastV
}

// Bins histograms the time spent at each level into `bins` equal-width
// buckets over [lo, hi); out-of-range time is dropped, mirroring
// Histogram's convention.
func (h *TimeHist) Bins(lo, hi float64, bins int) []float64 {
	out := make([]float64, bins)
	if bins == 0 || hi <= lo {
		return out
	}
	w := (hi - lo) / float64(bins)
	for v, wt := range h.dense {
		fv := float64(v)
		if wt == 0 || fv < lo || fv >= hi {
			continue
		}
		out[int((fv-lo)/w)] += wt
	}
	for i, v := range h.values {
		if v < lo || v >= hi {
			continue
		}
		out[int((v-lo)/w)] += h.weights[i]
	}
	return out
}

// String renders a compact summary.
func (h *TimeHist) String() string {
	return fmt.Sprintf("time=%.3fs mean=%.3f p50=%.3f p95=%.3f max=%.3f",
		h.total, h.Mean(), h.Percentile(50), h.Percentile(95), h.max)
}

// Quantiles bundles the common percentiles of a plain sample slice; a
// small convenience for the serving metrics.
type Quantiles struct {
	Mean, P50, P95, P99 float64
}

// QuantilesOf summarizes xs (zeros for empty input). It sorts one copy
// of the samples for all three percentiles; each equals Percentile's
// result bit for bit.
func QuantilesOf(xs []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	s := sortedCopy(xs)
	return Quantiles{
		Mean: Mean(xs),
		P50:  sortedPercentile(s, 50),
		P95:  sortedPercentile(s, 95),
		P99:  sortedPercentile(s, 99),
	}
}

// IsZero reports whether no samples contributed.
func (q Quantiles) IsZero() bool {
	return q.Mean == 0 && q.P50 == 0 && q.P95 == 0 && q.P99 == 0
}

// Finite reports whether every field is a finite number — a guard the
// simulator's metrics tests use.
func (q Quantiles) Finite() bool {
	for _, v := range []float64{q.Mean, q.P50, q.P95, q.P99} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
