package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesAppendAndWindow(t *testing.T) {
	t.Parallel()
	s := NewSeries("tp")
	for i := 0; i < 10; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	w := s.Window(3*time.Second, 6*time.Second)
	if len(w) != 3 {
		t.Fatalf("window size = %d, want 3", len(w))
	}
	if w[0].Value != 3 || w[2].Value != 5 {
		t.Fatalf("window = %v", w)
	}
}

func TestSeriesWindowHalfOpen(t *testing.T) {
	t.Parallel()
	s := NewSeries("x")
	s.Append(time.Second, 1)
	s.Append(2*time.Second, 2)
	w := s.Window(time.Second, 2*time.Second)
	if len(w) != 1 || w[0].Value != 1 {
		t.Fatalf("half-open window wrong: %v", w)
	}
}

func TestSeriesOutOfOrderClamped(t *testing.T) {
	t.Parallel()
	s := NewSeries("x")
	s.Append(5*time.Second, 1)
	s.Append(3*time.Second, 2) // out of order
	if s.At(1).At != 5*time.Second {
		t.Fatalf("out-of-order sample not clamped: %v", s.At(1))
	}
}

func TestSeriesGrow(t *testing.T) {
	t.Parallel()
	s := NewSeries("x")
	s.Append(time.Second, 1)
	s.Grow(999)
	if s.Len() != 1 || s.At(0).Value != 1 {
		t.Fatalf("Grow changed contents: len=%d", s.Len())
	}
	// All 999 reserved appends must reuse the grown buffer.
	grown := s.samples[:1]
	for i := 0; i < 999; i++ {
		s.Append(time.Duration(i+2)*time.Second, float64(i))
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d", s.Len())
	}
	if &grown[0] != &s.samples[0] {
		t.Fatal("Append reallocated despite Grow reservation")
	}
	s.Grow(0)
	s.Grow(-5) // no-ops
	if s.Len() != 1000 {
		t.Fatalf("Len after no-op Grow = %d", s.Len())
	}
}

func TestSeriesLast(t *testing.T) {
	t.Parallel()
	s := NewSeries("x")
	if _, ok := s.Last(); ok {
		t.Fatal("empty series reported a last sample")
	}
	s.Append(time.Second, 42)
	last, ok := s.Last()
	if !ok || last.Value != 42 {
		t.Fatalf("Last = %v, %v", last, ok)
	}
}

func TestSeriesSamplesIsCopy(t *testing.T) {
	t.Parallel()
	s := NewSeries("x")
	s.Append(time.Second, 1)
	got := s.Samples()
	got[0].Value = 99
	if s.At(0).Value != 1 {
		t.Fatal("Samples returned a view into internal state")
	}
}

func TestSummarize(t *testing.T) {
	t.Parallel()
	sum := Summarize([]float64{1, 2, 3, 4, 5})
	if sum.Count != 5 || sum.Mean != 3 || sum.Min != 1 || sum.Max != 5 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.P50 != 3 {
		t.Fatalf("P50 = %v", sum.P50)
	}
	if math.Abs(sum.Stddev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("Stddev = %v", sum.Stddev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	t.Parallel()
	if s := Summarize(nil); s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	t.Parallel()
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input reordered: %v", in)
	}
}

// TestSummarizeInPlaceMatchesSummarize: the in-place variant returns the
// same Summary bit for bit (the sum runs over the same sorted values) and
// leaves its input sorted.
func TestSummarizeInPlaceMatchesSummarize(t *testing.T) {
	t.Parallel()
	prop := func(in []float64) bool {
		want := Summarize(in)
		vals := append([]float64(nil), in...)
		got := SummarizeInPlace(vals)
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		return got.Count == want.Count && same(got.Mean, want.Mean) &&
			same(got.Min, want.Min) && same(got.Max, want.Max) &&
			same(got.Stddev, want.Stddev) && same(got.P50, want.P50) &&
			same(got.P90, want.P90) && same(got.P95, want.P95) &&
			same(got.P99, want.P99) && sort.Float64sAreSorted(vals)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if s := SummarizeInPlace(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	t.Parallel()
	sorted := []float64{10, 20, 30, 40}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 40}, {-0.5, 10}, {1.5, 40},
		{0.5, 25}, // interpolated
		{1.0 / 3.0, 20},
	}
	for _, tt := range tests {
		if got := Percentile(sorted, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %v", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	t.Parallel()
	prop := func(vals []float64, a, b float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		sort.Float64s(vals)
		pa := math.Mod(math.Abs(a), 1)
		pb := math.Mod(math.Abs(b), 1)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(vals, pa) <= Percentile(vals, pb)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterDelta(t *testing.T) {
	t.Parallel()
	var c Counter
	c.Inc(5)
	c.Inc(3)
	if c.Total() != 8 {
		t.Fatalf("Total = %d", c.Total())
	}
	if d := c.TakeDelta(); d != 8 {
		t.Fatalf("first delta = %d", d)
	}
	c.Inc(2)
	if d := c.TakeDelta(); d != 2 {
		t.Fatalf("second delta = %d", d)
	}
	if d := c.TakeDelta(); d != 0 {
		t.Fatalf("empty delta = %d", d)
	}
}

func TestMeanAccumulator(t *testing.T) {
	t.Parallel()
	var m MeanAccumulator
	if _, ok := m.TakeMean(); ok {
		t.Fatal("empty accumulator reported a mean")
	}
	m.Observe(2)
	m.Observe(4)
	mean, ok := m.TakeMean()
	if !ok || mean != 3 {
		t.Fatalf("mean = %v, %v", mean, ok)
	}
	if _, ok := m.TakeMean(); ok {
		t.Fatal("accumulator not reset")
	}
}

func TestTimeWeightedAverage(t *testing.T) {
	t.Parallel()
	var w TimeWeighted
	w.Set(0, 10)             // value 10 for 2s
	w.Set(2*time.Second, 20) // value 20 for 2s
	avg := w.TakeAverage(4 * time.Second)
	if math.Abs(avg-15) > 1e-9 {
		t.Fatalf("avg = %v, want 15", avg)
	}
	// New interval: value stays 20 for 1s.
	avg = w.TakeAverage(5 * time.Second)
	if math.Abs(avg-20) > 1e-9 {
		t.Fatalf("second avg = %v, want 20", avg)
	}
}

func TestTimeWeightedZeroInterval(t *testing.T) {
	t.Parallel()
	var w TimeWeighted
	w.Set(0, 7)
	if avg := w.TakeAverage(0); avg != 7 {
		t.Fatalf("zero-interval avg = %v, want current value", avg)
	}
}

func TestBusyTracker(t *testing.T) {
	t.Parallel()
	var b BusyTracker
	b.Enter(0)
	b.Exit(2 * time.Second) // busy 2s of 10s
	u := b.TakeUtilization(10 * time.Second)
	if math.Abs(u-0.2) > 1e-9 {
		t.Fatalf("util = %v, want 0.2", u)
	}
}

func TestBusyTrackerNested(t *testing.T) {
	t.Parallel()
	var b BusyTracker
	b.Enter(0)
	b.Enter(time.Second)
	b.Exit(2 * time.Second)
	if !b.Busy() {
		t.Fatal("tracker idle while one unit still active")
	}
	b.Exit(3 * time.Second)
	u := b.TakeUtilization(4 * time.Second)
	if math.Abs(u-0.75) > 1e-9 {
		t.Fatalf("util = %v, want 0.75", u)
	}
}

func TestBusyTrackerSpansInterval(t *testing.T) {
	t.Parallel()
	var b BusyTracker
	b.Enter(0)
	u := b.TakeUtilization(4 * time.Second)
	if math.Abs(u-1) > 1e-9 {
		t.Fatalf("util = %v, want 1 while busy across boundary", u)
	}
	b.Exit(6 * time.Second) // busy 2s of next 4s interval
	u = b.TakeUtilization(8 * time.Second)
	if math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("second util = %v, want 0.5", u)
	}
}

func TestBusyTrackerUnbalancedExit(t *testing.T) {
	t.Parallel()
	var b BusyTracker
	b.Exit(time.Second) // must not underflow
	if b.Busy() {
		t.Fatal("tracker busy after unbalanced exit")
	}
	u := b.TakeUtilization(2 * time.Second)
	if u != 0 {
		t.Fatalf("util = %v, want 0", u)
	}
}

func TestBusyTrackerUtilizationClamped(t *testing.T) {
	t.Parallel()
	prop := func(spansRaw []uint8) bool {
		var b BusyTracker
		now := time.Duration(0)
		for _, s := range spansRaw {
			b.Enter(now)
			now += time.Duration(s%10) * time.Millisecond
			b.Exit(now)
			now += time.Millisecond
		}
		u := b.TakeUtilization(now)
		return u >= 0 && u <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTable(t *testing.T) {
	t.Parallel()
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b") // short row padded
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "value") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want 3", len(lines))
	}
}

func TestSummaryString(t *testing.T) {
	t.Parallel()
	s := Summarize([]float64{1, 2, 3})
	str := s.String()
	if !strings.Contains(str, "n=3") {
		t.Fatalf("Summary.String() = %q", str)
	}
}
