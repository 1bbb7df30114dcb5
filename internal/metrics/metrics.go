// Package metrics provides the measurement primitives used by the
// fine-grained resource monitor and the experiments: per-interval
// counters and accumulators (counts, means, time-weighted averages, busy
// time), histograms, percentile summaries, request-disposition tallies,
// and the text tables and charts the reports render.
//
// The package is deliberately simulation-agnostic — timestamps are plain
// time.Duration offsets — so it is equally usable for recording real
// wall-clock measurements.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary describes a set of observations.
type Summary struct {
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Stddev float64 `json:"stddev"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
}

// Summarize computes a Summary over values. An empty input yields a zero
// Summary.
func Summarize(values []float64) Summary {
	return SummarizeInPlace(append([]float64(nil), values...))
}

// SummarizeInPlace is Summarize for a caller that no longer needs the
// order of values: it sorts values in place instead of copying them.
func SummarizeInPlace(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	sort.Float64s(values)
	sorted := values

	var sum, sumSq float64
	for _, v := range sorted {
		sum += v
		sumSq += v * v
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		Count:  len(sorted),
		Mean:   mean,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Stddev: math.Sqrt(variance),
		P50:    Percentile(sorted, 0.50),
		P90:    Percentile(sorted, 0.90),
		P95:    Percentile(sorted, 0.95),
		P99:    Percentile(sorted, 0.99),
	}
}

// Percentile returns the p-quantile (0 <= p <= 1) of sorted using linear
// interpolation between closest ranks. sorted must be ascending; an empty
// slice yields 0.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary in a compact single-line form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.Count, s.Mean, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// Counter is a monotonically increasing count with interval deltas, used to
// derive throughput from completion counts.
type Counter struct {
	total     uint64
	lastTotal uint64
}

// Inc adds n to the counter.
func (c *Counter) Inc(n uint64) { c.total += n }

// Total returns the lifetime count.
func (c *Counter) Total() uint64 { return c.total }

// TakeDelta returns the count accumulated since the previous TakeDelta call
// (or since creation) and starts a new interval.
func (c *Counter) TakeDelta() uint64 {
	d := c.total - c.lastTotal
	c.lastTotal = c.total
	return d
}

// MeanAccumulator accumulates values and reports interval means, used for
// per-control-period response-time and concurrency averages.
type MeanAccumulator struct {
	sum   float64
	count int
}

// Observe adds one value.
func (m *MeanAccumulator) Observe(v float64) {
	m.sum += v
	m.count++
}

// TakeMean returns the mean of values observed since the last TakeMean and
// resets the interval. It reports ok=false when no values were observed.
func (m *MeanAccumulator) TakeMean() (mean float64, ok bool) {
	if m.count == 0 {
		return 0, false
	}
	mean = m.sum / float64(m.count)
	m.sum, m.count = 0, 0
	return mean, true
}

// TimeWeighted tracks the time-weighted average of a step function, e.g.
// the number of active threads in a server.
type TimeWeighted struct {
	value    float64
	since    time.Duration
	area     float64 // integral of value over time, in value·seconds
	areaFrom time.Duration
}

// Set records that the tracked quantity changed to v at time now.
func (w *TimeWeighted) Set(now time.Duration, v float64) {
	w.area += w.value * (now - w.since).Seconds()
	w.value = v
	w.since = now
}

// TakeAverage returns the time-weighted average over [areaFrom, now) and
// starts a new averaging interval. A zero-length interval yields the
// current value.
func (w *TimeWeighted) TakeAverage(now time.Duration) float64 {
	w.area += w.value * (now - w.since).Seconds()
	w.since = now
	dur := (now - w.areaFrom).Seconds()
	avg := w.value
	if dur > 0 {
		avg = w.area / dur
	}
	w.area = 0
	w.areaFrom = now
	return avg
}

// BusyTracker measures the fraction of time a resource was busy, e.g. a
// simulated CPU. The resource is busy while the nesting count is positive.
type BusyTracker struct {
	nesting  int
	busyAt   time.Duration
	busy     time.Duration
	from     time.Duration
	lastSeen time.Duration
}

// Enter marks one unit of work starting at time now.
func (b *BusyTracker) Enter(now time.Duration) {
	b.lastSeen = now
	if b.nesting == 0 {
		b.busyAt = now
	}
	b.nesting++
}

// Exit marks one unit of work ending at time now. Unbalanced Exits are
// clamped at zero.
func (b *BusyTracker) Exit(now time.Duration) {
	b.lastSeen = now
	if b.nesting == 0 {
		return
	}
	b.nesting--
	if b.nesting == 0 {
		b.busy += now - b.busyAt
	}
}

// TakeUtilization returns the busy fraction over [from, now) and starts a
// new measurement interval. The result is clamped to [0, 1].
func (b *BusyTracker) TakeUtilization(now time.Duration) float64 {
	busy := b.busy
	if b.nesting > 0 {
		busy += now - b.busyAt
		b.busyAt = now
	}
	interval := now - b.from
	b.busy = 0
	b.from = now
	if interval <= 0 {
		return 0
	}
	u := busy.Seconds() / interval.Seconds()
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Table renders rows of (label, values...) as an aligned text table — the
// output format of the benchmark harnesses.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	h := make([]string, len(header))
	copy(h, header)
	return &Table{header: h}
}

// AddRow appends a row. Rows shorter than the header are padded.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
