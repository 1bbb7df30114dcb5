package workload

import (
	"math"
	"testing"
	"time"

	"dcm/internal/rng"
	"dcm/internal/sim"
)

// TestOpenLoopGenConstantRate checks the homogeneous case: arrivals over a
// long window match rate*T within sampling noise and nothing is thinned.
func TestOpenLoopGenConstantRate(t *testing.T) {
	eng, target := setup(t, time.Millisecond)
	gen, err := NewOpenLoopGen(eng, rng.New(1).Split("wl"), target, ConstantRate(500))
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	if err := eng.Run(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := 500.0 * 100
	got := float64(gen.Scheduled())
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("scheduled %v arrivals, want ~%v", got, want)
	}
	if gen.Thinned() != 0 {
		t.Fatalf("constant curve thinned %d candidates, want 0", gen.Thinned())
	}
}

// TestOpenLoopGenThinningTracksCurve checks the NHPP construction: with a
// flash-crowd curve, windowed arrival counts must follow the instantaneous
// rate — baseline before the spike, peak on the plateau, baseline after.
func TestOpenLoopGenThinningTracksCurve(t *testing.T) {
	eng, target := setup(t, time.Millisecond)
	curve := &FlashCrowdRate{
		Base: 200, Peak: 1200,
		At: 60 * time.Second, Ramp: 10 * time.Second, Hold: 40 * time.Second,
	}
	gen, err := NewOpenLoopGen(eng, rng.New(1).Split("wl"), target, curve)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()

	countIn := func(from, until time.Duration) float64 {
		before := gen.Scheduled()
		if eng.Now() != from {
			t.Fatalf("window start: engine at %v, want %v", eng.Now(), from)
		}
		if err := eng.Run(until); err != nil {
			t.Fatal(err)
		}
		return float64(gen.Scheduled()-before) / (until - from).Seconds()
	}
	checkRate := func(label string, got, want float64) {
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("%s: %.0f arrivals/s, want ~%.0f", label, got, want)
		}
	}
	checkRate("baseline", countIn(0, 60*time.Second), 200)
	if err := eng.Run(70 * time.Second); err != nil { // skip the up-ramp
		t.Fatal(err)
	}
	checkRate("plateau", countIn(70*time.Second, 110*time.Second), 1200)
	if err := eng.Run(120 * time.Second); err != nil { // skip the down-ramp
		t.Fatal(err)
	}
	checkRate("recovered", countIn(120*time.Second, 240*time.Second), 200)
	if gen.Thinned() == 0 {
		t.Fatal("time-varying curve must thin some candidates")
	}
}

// TestDiurnalRateCurve pins the sinusoid's shape and envelope.
func TestDiurnalRateCurve(t *testing.T) {
	d := &DiurnalRate{Base: 100, Amplitude: 0.5, Period: 100 * time.Second}
	if got := d.Rate(0); math.Abs(got-100) > 1e-9 {
		t.Fatalf("Rate(0) = %v, want 100", got)
	}
	if got := d.Rate(25 * time.Second); math.Abs(got-150) > 1e-9 {
		t.Fatalf("Rate(T/4) = %v, want 150", got)
	}
	if got := d.Rate(75 * time.Second); math.Abs(got-50) > 1e-9 {
		t.Fatalf("Rate(3T/4) = %v, want 50", got)
	}
	if got := d.Max(); got != 150 {
		t.Fatalf("Max = %v, want 150", got)
	}
}

// TestFlashCrowdRateCurve pins the trapezoid's corners.
func TestFlashCrowdRateCurve(t *testing.T) {
	f := &FlashCrowdRate{Base: 10, Peak: 110,
		At: 100 * time.Second, Ramp: 20 * time.Second, Hold: 30 * time.Second}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 10},
		{99 * time.Second, 10},
		{110 * time.Second, 60},  // mid up-ramp
		{125 * time.Second, 110}, // plateau
		{160 * time.Second, 60},  // mid down-ramp
		{170 * time.Second, 10},
		{time.Hour, 10},
	}
	for _, tc := range cases {
		if got := f.Rate(tc.at); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Rate(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if got := f.Max(); got != 110 {
		t.Fatalf("Max = %v, want 110", got)
	}
}

// TestOpenLoopGenDeterminism: two runs under one seed are identical in
// every counter, including the class split.
func TestOpenLoopGenDeterminism(t *testing.T) {
	run := func() (uint64, uint64, []int) {
		eng := sim.NewEngine()
		target := &classFakeTarget{fakeTarget: fakeTarget{eng: eng, delay: 2 * time.Millisecond}}
		curve := &DiurnalRate{Base: 400, Amplitude: 0.8, Period: 40 * time.Second}
		gen, err := NewOpenLoopGen(eng, rng.New(77).Split("wl"), target, curve)
		if err != nil {
			t.Fatal(err)
		}
		if err := gen.SetClasses([]Class{
			{Name: "a", Weight: 1}, {Name: "b", Weight: 3}}); err != nil {
			t.Fatal(err)
		}
		gen.Start()
		if err := eng.Run(120 * time.Second); err != nil {
			t.Fatal(err)
		}
		return gen.Scheduled(), gen.Thinned(), []int{target.byClass[0], target.byClass[1]}
	}
	s1, t1, c1 := run()
	s2, t2, c2 := run()
	if s1 != s2 || t1 != t2 || c1[0] != c2[0] || c1[1] != c2[1] {
		t.Fatalf("runs diverged: (%d,%d,%v) vs (%d,%d,%v)", s1, t1, c1, s2, t2, c2)
	}
	if s1 == 0 || t1 == 0 || c1[0] == 0 || c1[1] == 0 {
		t.Fatalf("degenerate run: scheduled=%d thinned=%d classes=%v", s1, t1, c1)
	}
}

// TestOpenLoopGenValidation pins constructor errors.
func TestOpenLoopGenValidation(t *testing.T) {
	eng, target := setup(t, time.Millisecond)
	r := rng.New(1).Split("wl")
	if _, err := NewOpenLoopGen(nil, r, target, ConstantRate(1)); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewOpenLoopGen(eng, r, target, nil); err == nil {
		t.Fatal("nil curve accepted")
	}
	if _, err := NewOpenLoopGen(eng, r, target, ConstantRate(0)); err == nil {
		t.Fatal("zero rate accepted")
	}
	gen, err := NewOpenLoopGen(eng, r, target, ConstantRate(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.SetClasses(nil); err == nil {
		t.Fatal("empty class mix accepted")
	}
}

// TestOpenLoopGenStop: no arrivals are injected after Stop.
func TestOpenLoopGenStop(t *testing.T) {
	eng, target := setup(t, time.Millisecond)
	gen, err := NewOpenLoopGen(eng, rng.New(1).Split("wl"), target, ConstantRate(1000))
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	gen.Stop()
	at := gen.Scheduled()
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if gen.Scheduled() != at {
		t.Fatalf("arrivals after Stop: %d -> %d", at, gen.Scheduled())
	}
}

// countTarget completes every request synchronously — the cheapest
// possible target, so the benchmark measures the generator and event core
// alone (fakeTarget's per-request closure would hide the generator's
// allocation profile).
type countTarget struct{ n uint64 }

func (t *countTarget) Inject(done func(rt time.Duration, ok bool)) {
	t.n++
	done(time.Millisecond, true)
}

func (t *countTarget) InjectClass(_ int, _ uint64, done func(rt time.Duration, ok bool)) {
	t.Inject(done)
}

// BenchmarkOpenLoopArrivals measures the open-loop hot path: one scheduled
// arrival through the thinning check, injection and rearm. It must run
// allocation-free in steady state — the generator exists to sustain
// millions of arrivals, so a per-arrival allocation is a regression (gated
// via BENCH_engine.baseline.json).
func BenchmarkOpenLoopArrivals(b *testing.B) {
	eng := sim.NewEngine()
	target := &countTarget{}
	curve := &DiurnalRate{Base: 900_000, Amplitude: 0.1, Period: time.Second}
	gen, err := NewOpenLoopGen(eng, rng.New(1).Split("wl"), target, curve)
	if err != nil {
		b.Fatal(err)
	}
	gen.Start()
	// Warm the engine's arena so steady state is what gets measured.
	horizon := 100 * time.Millisecond
	if err := eng.Run(horizon); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	goal := gen.Scheduled() + gen.Thinned() + uint64(b.N)
	for gen.Scheduled()+gen.Thinned() < goal {
		horizon += 10 * time.Millisecond
		if err := eng.Run(horizon); err != nil {
			b.Fatal(err)
		}
	}
}
