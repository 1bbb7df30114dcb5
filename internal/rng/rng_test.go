package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	t.Parallel()
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	t.Parallel()
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds collided %d/100 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	t.Parallel()
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero-seeded generator produced only %d distinct values", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	t.Parallel()
	parent := New(7)
	a := parent.Split("workload")
	b := parent.Split("server")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collided %d/100 times", same)
	}
}

func TestSplitDeterministicByLabel(t *testing.T) {
	t.Parallel()
	a := New(7).Split("x")
	b := New(7).Split("x")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-label splits from same parent state diverged")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64RangeProperty(t *testing.T) {
	t.Parallel()
	prop := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRangeProperty(t *testing.T) {
	t.Parallel()
	prop := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	t.Parallel()
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.05 {
		t.Fatalf("Exp(3) sample mean = %v, want ~3", mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	t.Parallel()
	r := New(1)
	if v := r.Exp(0); v != 0 {
		t.Fatalf("Exp(0) = %v, want 0", v)
	}
	if v := r.Exp(-1); v != 0 {
		t.Fatalf("Exp(-1) = %v, want 0", v)
	}
}

func TestExpNonNegativeProperty(t *testing.T) {
	t.Parallel()
	prop := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			if r.Exp(1.5) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformBounds(t *testing.T) {
	t.Parallel()
	r := New(5)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v", v)
		}
	}
	if v := r.Uniform(4, 4); v != 4 {
		t.Fatalf("Uniform(4,4) = %v, want 4", v)
	}
	if v := r.Uniform(4, 2); v != 4 {
		t.Fatalf("Uniform(4,2) = %v, want lo", v)
	}
}

func TestNormalMoments(t *testing.T) {
	t.Parallel()
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("Normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestLogNormalPositive(t *testing.T) {
	t.Parallel()
	r := New(17)
	for i := 0; i < 1000; i++ {
		if v := r.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}

func TestBoundedParetoRange(t *testing.T) {
	t.Parallel()
	r := New(19)
	for i := 0; i < 10000; i++ {
		v := r.BoundedPareto(1.5, 1, 100)
		if v < 1 || v > 100 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
	}
}

func TestBoundedParetoDegenerate(t *testing.T) {
	t.Parallel()
	r := New(1)
	if v := r.BoundedPareto(1.5, 0, 10); v != 0 {
		t.Fatalf("lo<=0 should return lo, got %v", v)
	}
	if v := r.BoundedPareto(1.5, 5, 5); v != 5 {
		t.Fatalf("hi<=lo should return lo, got %v", v)
	}
	if v := r.BoundedPareto(0, 2, 10); v != 2 {
		t.Fatalf("alpha<=0 should return lo, got %v", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	t.Parallel()
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	New(23).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func TestParseSeed(t *testing.T) {
	t.Parallel()
	tests := []struct {
		in      string
		want    uint64
		wantErr bool
	}{
		{"0", 0, false},
		{"42", 42, false},
		{"18446744073709551615", math.MaxUint64, false},
		{"-1", 0, true},
		{"abc", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseSeed(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseSeed(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseSeed(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

// TestWeightedMatchesReferenceDraws checks that Weighted.Pick returns the
// index both inline weighted draws it replaced returned, on the same
// stream: the app's servlet-mix draw (Float64 times the running total,
// against a running sum) and the generators' class picker (Uniform over
// the total, against precomputed cumulative sums).
func TestWeightedMatchesReferenceDraws(t *testing.T) {
	t.Parallel()
	servletDraw := func(r *Rand, weights []float64) int {
		total := 0.0
		for _, w := range weights {
			total += w
		}
		u := r.Float64() * total
		acc := 0.0
		for i, w := range weights {
			acc += w
			if u < acc {
				return i
			}
		}
		return len(weights) - 1
	}
	pickerDraw := func(r *Rand, weights []float64) int {
		cum := make([]float64, len(weights))
		total := 0.0
		for i, w := range weights {
			total += w
			cum[i] = total
		}
		u := r.Uniform(0, cum[len(cum)-1])
		for i, c := range cum {
			if u < c {
				return i
			}
		}
		return len(cum) - 1
	}
	prop := func(seed uint64, raw []uint16) bool {
		weights := []float64{1}
		for _, v := range raw {
			weights = append(weights, float64(v%1000+1)/7)
		}
		w := NewWeighted(weights)
		got, a, b := New(seed), New(seed), New(seed)
		for i := 0; i < 64; i++ {
			k := w.Pick(got)
			if k != servletDraw(a, weights) || k != pickerDraw(b, weights) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
