package metrics

import (
	"fmt"
	"strings"
)

// Used only by this package's tests; no production code calls these.

// Busy reports whether the resource is busy now.
func (b *BusyTracker) Busy() bool { return b.nesting > 0 }

// Last returns the most recent sample and whether one exists.
func (s *Series) Last() (Sample, bool) {
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	return s.samples[len(s.samples)-1], true
}

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
