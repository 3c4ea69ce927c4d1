package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestTimeHistMeanMaxTotal(t *testing.T) {
	var h TimeHist
	if h.Mean() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Errorf("empty hist not zero: %s", h.String())
	}
	h.Add(2, 1)  // depth 2 for 1s
	h.Add(4, 3)  // depth 4 for 3s
	h.Add(0, -1) // ignored
	h.Add(9, 0)  // ignored
	if h.TotalTime() != 4 {
		t.Errorf("total = %g", h.TotalTime())
	}
	if want := (2*1 + 4*3) / 4.0; math.Abs(h.Mean()-want) > 1e-12 {
		t.Errorf("mean = %g, want %g", h.Mean(), want)
	}
	if h.Max() != 4 {
		t.Errorf("max = %g", h.Max())
	}
}

func TestTimeHistPercentile(t *testing.T) {
	var h TimeHist
	// Signal sits at 1 for 9s and spikes to 100 for 1s: the p50 must see
	// the long-held level, the p95+ the spike.
	h.Add(100, 1)
	h.Add(1, 9)
	if got := h.Percentile(50); got != 1 {
		t.Errorf("p50 = %g, want 1 (time-weighted)", got)
	}
	if got := h.Percentile(95); got != 100 {
		t.Errorf("p95 = %g, want 100", got)
	}
	if got := h.Percentile(0); got != 1 {
		t.Errorf("p0 = %g, want 1", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Errorf("p100 = %g, want 100", got)
	}
}

func TestTimeHistBins(t *testing.T) {
	var h TimeHist
	h.Add(0.5, 2)
	h.Add(1.5, 1)
	h.Add(9.5, 4)
	h.Add(10, 7) // out of [0, 10)
	bins := h.Bins(0, 10, 10)
	if bins[0] != 2 || bins[1] != 1 || bins[9] != 4 {
		t.Errorf("bins = %v", bins)
	}
	if got := h.Bins(0, 0, 5); len(got) != 5 {
		t.Errorf("degenerate range bins = %v", got)
	}
}

func TestQuantilesOf(t *testing.T) {
	q := QuantilesOf(nil)
	if !q.IsZero() || !q.Finite() {
		t.Errorf("empty quantiles = %+v", q)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q = QuantilesOf(xs)
	if q.Mean != 50.5 {
		t.Errorf("mean = %g", q.Mean)
	}
	if q.P50 >= q.P95 || q.P95 >= q.P99 {
		t.Errorf("quantiles unordered: %+v", q)
	}
	if !q.Finite() || q.IsZero() {
		t.Errorf("quantiles flags: %+v", q)
	}
}

// TestQuantilesOfMatchesPercentile pins the sort-once QuantilesOf to
// {Mean, Percentile(50/95/99)} bit for bit, ±Inf and NaN results
// included.
func TestQuantilesOfMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := [][]float64{
		nil,
		{},
		{3.25},
		{2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 3, 2},
		{math.Inf(1), 1, 2, math.Inf(-1), 5},
		{math.Inf(1), math.Inf(1), 0.5},
		{-1, math.Inf(-1), math.Inf(-1), math.Inf(-1)},
	}
	for n := 2; n < 300; n += 37 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 1e3
		}
		inputs = append(inputs, xs)
		dup := make([]float64, n)
		for i := range dup {
			dup[i] = float64(rng.Intn(3))
		}
		inputs = append(inputs, dup)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, xs := range inputs {
		orig := append([]float64(nil), xs...)
		got := QuantilesOf(xs)
		want := Quantiles{Mean: Mean(xs), P50: Percentile(xs, 50), P95: Percentile(xs, 95), P99: Percentile(xs, 99)}
		if !same(got.Mean, want.Mean) || !same(got.P50, want.P50) || !same(got.P95, want.P95) || !same(got.P99, want.P99) {
			t.Errorf("input %d (n=%d): QuantilesOf = %+v, want %+v", i, len(xs), got, want)
		}
		for j := range xs {
			if !same(xs[j], orig[j]) {
				t.Fatalf("input %d: QuantilesOf reordered its input", i)
			}
		}
	}
}
