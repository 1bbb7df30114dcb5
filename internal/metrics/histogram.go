package metrics

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bucket histogram for high-volume per-event
// observations (queue depths, service times, pool waits) where keeping
// every sample would be too expensive. Bucket i counts observations v with
// bounds[i-1] < v <= bounds[i]; the last bucket is the +Inf overflow.
// The zero value is unusable — construct with NewHistogram.
type Histogram struct {
	bounds []float64 // ascending upper bounds, exclusive of +Inf overflow
	counts []uint64  // len(bounds)+1, last is overflow
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram returns a histogram with the given ascending upper bounds.
// Non-ascending bounds panic: bucket layout is a programming decision, not
// runtime input.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// ExpBuckets returns n ascending bounds starting at start, each factor
// times the previous — the usual layout for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic(fmt.Sprintf("metrics: bad ExpBuckets(%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Merge adds other's observations into h. The bucket layouts must match;
// mismatched layouts panic.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if len(other.bounds) != len(h.bounds) {
		panic("metrics: merging histograms with different bucket layouts")
	}
	for i, b := range other.bounds {
		if b != h.bounds[i] {
			panic("metrics: merging histograms with different bucket layouts")
		}
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// CloneEmpty returns an empty histogram with the same bucket layout —
// the merge target for folding per-server histograms into a tier view.
func (h *Histogram) CloneEmpty() *Histogram { return NewHistogram(h.bounds) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the mean observed value, 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observed value (exact, not bucketed).
func (h *Histogram) Max() float64 { return h.max }

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket that holds the target rank. The estimate is clamped to
// the observed min/max, so single-bucket distributions stay sane; an empty
// histogram yields 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.count)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := seen + float64(c)
		if rank <= next {
			lo := h.min
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if lo < h.min {
				lo = h.min
			}
			if hi < lo {
				hi = lo
			}
			est := lo + (hi-lo)*(rank-seen)/float64(c)
			return math.Min(math.Max(est, h.min), h.max)
		}
		seen = next
	}
	return h.max
}

// String renders a compact one-line summary.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		h.count, h.Mean(), h.min, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.max)
}
