package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileEdgeCases(t *testing.T) {
	t.Parallel()
	// Single sample: every quantile is that sample.
	single := []float64{7}
	for _, p := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := Percentile(single, p); got != 7 {
			t.Errorf("Percentile([7], %v) = %v", p, got)
		}
	}
	// All-equal values: every quantile is the common value.
	equal := []float64{3, 3, 3, 3}
	for _, p := range []float64{0, 0.5, 1} {
		if got := Percentile(equal, p); got != 3 {
			t.Errorf("Percentile(all-equal, %v) = %v", p, got)
		}
	}
	// p=0 and p=1 hit the exact min and max, never interpolate past them.
	sorted := []float64{-2, 0, 10}
	if got := Percentile(sorted, 0); got != -2 {
		t.Errorf("p=0 → %v, want min", got)
	}
	if got := Percentile(sorted, 1); got != 10 {
		t.Errorf("p=1 → %v, want max", got)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	t.Parallel()
	one := Summarize([]float64{42})
	if one.Count != 1 || one.Mean != 42 || one.Min != 42 || one.Max != 42 ||
		one.Stddev != 0 || one.P50 != 42 || one.P99 != 42 {
		t.Fatalf("single-sample summary = %+v", one)
	}
	eq := Summarize([]float64{5, 5, 5})
	if eq.Stddev != 0 || eq.P50 != 5 || eq.P95 != 5 || eq.Min != 5 || eq.Max != 5 {
		t.Fatalf("all-equal summary = %+v", eq)
	}
}

// TestCounterTakeDeltaInterleaved checks deltas across interleaved Inc
// calls: each TakeDelta must account for exactly the Incs since the
// previous one, and the deltas must sum to the total.
func TestCounterTakeDeltaInterleaved(t *testing.T) {
	t.Parallel()
	var c Counter
	var deltas []uint64
	c.Inc(1)
	c.Inc(2)
	deltas = append(deltas, c.TakeDelta()) // 3
	deltas = append(deltas, c.TakeDelta()) // 0
	c.Inc(4)
	deltas = append(deltas, c.TakeDelta()) // 4
	c.Inc(1)
	c.Inc(1)
	c.Inc(1)
	deltas = append(deltas, c.TakeDelta()) // 3
	want := []uint64{3, 0, 4, 3}
	var sum uint64
	for i, d := range deltas {
		if d != want[i] {
			t.Errorf("delta %d = %d, want %d", i, d, want[i])
		}
		sum += d
	}
	if sum != c.Total() {
		t.Errorf("deltas sum to %d, total is %d", sum, c.Total())
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	t.Parallel()
	h := NewHistogram(LinearBuckets(1, 1, 10))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i%10) + 0.5) // values 0.5..9.5
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Mean()-5.0) > 1e-9 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 0.5 || h.Max() != 9.5 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if q := h.Quantile(0); q != 0.5 {
		t.Fatalf("q0 = %v", q)
	}
	if q := h.Quantile(1); q != 9.5 {
		t.Fatalf("q1 = %v", q)
	}
	q50 := h.Quantile(0.5)
	if q50 < 4 || q50 > 6 {
		t.Fatalf("q50 = %v, want ≈5", q50)
	}
	if got := h.Quantile(0.99); got < 8 || got > 9.5 {
		t.Fatalf("q99 = %v", got)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	t.Parallel()
	h := NewHistogram([]float64{1, 2})
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.String() != "n=0" {
		t.Fatal("empty histogram not zero-valued")
	}
	h.Observe(100) // overflow bucket
	bs := h.Buckets()
	if len(bs) != 3 || !math.IsInf(bs[2].UpperBound, 1) || bs[2].Count != 1 {
		t.Fatalf("buckets = %+v", bs)
	}
	// Overflow quantile is clamped to the observed max, not +Inf.
	if q := h.Quantile(0.5); q != 100 {
		t.Fatalf("overflow q50 = %v", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	t.Parallel()
	bounds := ExpBuckets(0.001, 2, 8)
	a, b := NewHistogram(bounds), NewHistogram(bounds)
	a.Observe(0.002)
	a.Observe(0.004)
	b.Observe(0.1)
	a.Merge(b)
	a.Merge(nil)
	a.Merge(NewHistogram(bounds)) // empty merge is a no-op
	if a.Count() != 3 || a.Max() != 0.1 || a.Min() != 0.002 {
		t.Fatalf("merged: n=%d min=%v max=%v", a.Count(), a.Min(), a.Max())
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched-layout merge did not panic")
		}
	}()
	c := NewHistogram([]float64{1})
	c.Observe(0.5)
	a.Merge(c)
}

func TestHistogramRender(t *testing.T) {
	t.Parallel()
	h := NewHistogram(LinearBuckets(1, 1, 3))
	h.Observe(0.5)
	h.Observe(0.7)
	h.Observe(2.5)
	out := h.Render(20)
	if !strings.Contains(out, "#") || !strings.Contains(out, "<= 1") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestBucketHelpersPanic(t *testing.T) {
	t.Parallel()
	for name, fn := range map[string]func(){
		"exp-bad-factor":   func() { ExpBuckets(1, 1, 3) },
		"exp-bad-n":        func() { ExpBuckets(1, 2, 0) },
		"linear-bad-width": func() { LinearBuckets(0, 0, 3) },
		"hist-unsorted":    func() { NewHistogram([]float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
