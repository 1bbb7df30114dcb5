package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Used only by this package's tests; no production code calls these.

// Busy reports whether the resource is busy now.
func (b *BusyTracker) Busy() bool { return b.nesting > 0 }

// LinearBuckets returns n ascending bounds start, start+width, ... — the
// usual layout for small-integer distributions such as queue depths.
func LinearBuckets(start, width float64, n int) []float64 {
	if n <= 0 || width <= 0 {
		panic(fmt.Sprintf("metrics: bad LinearBuckets(%v, %v, %d)", start, width, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// sparkTicks are the eighth-block characters used by Sparkline.
var sparkTicks = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a single-line Unicode sparkline scaled to
// [min, max]. width caps the number of cells (0 keeps one cell per value);
// longer series are downsampled by taking the maximum of each bucket so
// spikes stay visible.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	vals := downsampleMax(values, width)
	lo, hi := minMax(vals)
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkTicks)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkTicks) {
			idx = len(sparkTicks) - 1
		}
		b.WriteRune(sparkTicks[idx])
	}
	return b.String()
}

// Buckets returns (upperBound, count) pairs including the +Inf overflow
// bucket (reported with math.Inf(1) as its bound).
func (h *Histogram) Buckets() []BucketCount {
	out := make([]BucketCount, len(h.counts))
	for i, c := range h.counts {
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		out[i] = BucketCount{UpperBound: bound, Count: c}
	}
	return out
}

// BucketCount is one histogram bucket.
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// Render draws a vertical ASCII view of the non-empty buckets, one row per
// bucket with a proportional bar — the report-rendering form.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	var peak uint64
	for _, c := range h.counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		label := "+Inf"
		if i < len(h.bounds) {
			label = fmt.Sprintf("%.4g", h.bounds[i])
		}
		bar := 0
		if peak > 0 {
			bar = int(float64(width) * float64(c) / float64(peak))
			if bar == 0 {
				bar = 1
			}
		}
		fmt.Fprintf(&b, "  <= %-8s %8d %s\n", label, c, strings.Repeat("#", bar))
	}
	return b.String()
}

// Min returns the smallest observed value (exact, not bucketed).
func (h *Histogram) Min() float64 { return h.min }
