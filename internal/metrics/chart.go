package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Chart renders values as a column chart of the given height with a
// labeled y-axis — enough to see the shape of a Fig. 5 series in a
// terminal. width caps the number of columns (downsampled by bucket
// maximum); height is the number of rows (minimum 2).
func Chart(title string, values []float64, width, height int) string {
	if len(values) == 0 {
		return title + ": (no data)\n"
	}
	if height < 2 {
		height = 2
	}
	vals := downsampleMax(values, width)
	lo, hi := minMax(vals)
	if hi == lo {
		hi = lo + 1
	}

	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteString("\n")
	}
	labelWidth := 0
	labels := make([]string, height)
	for row := 0; row < height; row++ {
		frac := float64(height-1-row) / float64(height-1)
		labels[row] = fmt.Sprintf("%.3g", lo+frac*(hi-lo))
		if len(labels[row]) > labelWidth {
			labelWidth = len(labels[row])
		}
	}
	for row := 0; row < height; row++ {
		b.WriteString(strings.Repeat(" ", labelWidth-len(labels[row])))
		b.WriteString(labels[row])
		b.WriteString(" ┤")
		threshold := float64(height-1-row) / float64(height)
		for _, v := range vals {
			norm := (v - lo) / (hi - lo)
			if norm > threshold {
				b.WriteString("█")
			} else if norm > threshold-0.5/float64(height) {
				b.WriteString("▄")
			} else {
				b.WriteString(" ")
			}
		}
		b.WriteString("\n")
	}
	b.WriteString(strings.Repeat(" ", labelWidth+1))
	b.WriteString("└")
	b.WriteString(strings.Repeat("─", len(vals)))
	b.WriteString("\n")
	return b.String()
}

// downsampleMax buckets values into at most width cells, keeping each
// bucket's maximum. width <= 0 returns a copy.
func downsampleMax(values []float64, width int) []float64 {
	if width <= 0 || len(values) <= width {
		out := make([]float64, len(values))
		copy(out, values)
		return out
	}
	out := make([]float64, width)
	for i := range out {
		start := i * len(values) / width
		end := (i + 1) * len(values) / width
		if end <= start {
			end = start + 1
		}
		m := math.Inf(-1)
		for _, v := range values[start:end] {
			if v > m {
				m = v
			}
		}
		out[i] = m
	}
	return out
}

func minMax(values []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
