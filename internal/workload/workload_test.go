package workload

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// fakeTarget completes every request after a fixed delay.
type fakeTarget struct {
	eng       *sim.Engine
	delay     time.Duration
	inFlight  int
	peak      int
	total     int
	completed int
}

func (f *fakeTarget) Inject(done func(rt time.Duration, ok bool)) {
	f.inFlight++
	f.total++
	if f.inFlight > f.peak {
		f.peak = f.inFlight
	}
	start := f.eng.Now()
	f.eng.Schedule(f.delay, func() {
		f.inFlight--
		f.completed++
		if done != nil {
			done(f.eng.Now()-start, true)
		}
	})
}

func (f *fakeTarget) InjectClass(_ int, _ uint64, done func(rt time.Duration, ok bool)) {
	f.Inject(done)
}

var _ Target = (*fakeTarget)(nil)

func setup(t *testing.T, delay time.Duration) (*sim.Engine, *fakeTarget) {
	t.Helper()
	eng := sim.NewEngine()
	return eng, &fakeTarget{eng: eng, delay: delay}
}

func TestNewClosedLoopValidation(t *testing.T) {
	t.Parallel()
	eng, tgt := setup(t, time.Millisecond)
	r := rng.New(1)
	if _, err := NewClosedLoop(nil, r, tgt, ClosedLoopConfig{}); !errors.Is(err, ErrBadWorkload) {
		t.Fatalf("nil engine: %v", err)
	}
	if _, err := NewClosedLoop(eng, r, nil, ClosedLoopConfig{}); !errors.Is(err, ErrBadWorkload) {
		t.Fatalf("nil target: %v", err)
	}
	if _, err := NewClosedLoop(eng, r, tgt, ClosedLoopConfig{Users: -1}); !errors.Is(err, ErrBadWorkload) {
		t.Fatalf("negative users: %v", err)
	}
}

func TestZeroThinkConcurrencyEqualsUsers(t *testing.T) {
	t.Parallel()
	eng, tgt := setup(t, 10*time.Millisecond)
	wl, err := NewClosedLoop(eng, rng.New(2).Split("wl"), tgt, ClosedLoopConfig{
		Users: 25, ThinkTime: 0, Stagger: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl.Start()
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Jmeter semantics: workload concurrency == users.
	if tgt.peak != 25 {
		t.Fatalf("peak concurrency = %d, want 25", tgt.peak)
	}
	// Throughput = users/delay = 2500/s.
	rate := float64(wl.TotalCompleted()) / 5.0
	if math.Abs(rate-2500)/2500 > 0.05 {
		t.Fatalf("rate = %v, want ~2500", rate)
	}
}

func TestThinkTimeThroughput(t *testing.T) {
	t.Parallel()
	eng, tgt := setup(t, 10*time.Millisecond)
	wl, err := NewClosedLoop(eng, rng.New(3).Split("wl"), tgt, ClosedLoopConfig{
		Users: 300, ThinkTime: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl.Start()
	if err := eng.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Closed-loop law: X = U/(Z+R) = 300/3.01 ≈ 99.7/s.
	rate := float64(wl.TotalCompleted()) / 60.0
	if math.Abs(rate-99.7)/99.7 > 0.05 {
		t.Fatalf("rate = %v, want ~99.7", rate)
	}
}

func TestStartIdempotent(t *testing.T) {
	t.Parallel()
	t.Run("closed", func(t *testing.T) {
		eng, tgt := setup(t, time.Millisecond)
		wl, err := NewClosedLoop(eng, rng.New(4).Split("wl"), tgt, ClosedLoopConfig{Users: 5})
		if err != nil {
			t.Fatal(err)
		}
		wl.Start()
		wl.Start()
		if err := eng.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if tgt.peak > 5 {
			t.Fatalf("double Start spawned extra users: peak %d", tgt.peak)
		}
	})
	// A second Start must not begin a second Poisson chain: two calls
	// schedule exactly the arrivals one call does.
	t.Run("open", func(t *testing.T) {
		arrivals := func(starts int) []time.Duration {
			eng, tgt := setup(t, time.Millisecond)
			log := &arrivalLog{fakeTarget: tgt}
			ol, err := NewOpenLoopGen(eng, rng.New(1).Split("wl"), log, ConstantRate(100))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < starts; i++ {
				ol.Start()
			}
			if err := eng.Run(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if ol.Scheduled() != uint64(len(log.at)) {
				t.Fatalf("scheduled %d, target saw %d arrivals", ol.Scheduled(), len(log.at))
			}
			return log.at
		}
		once, twice := arrivals(1), arrivals(2)
		if len(once) == 0 || !slices.Equal(once, twice) {
			t.Fatalf("double Start scheduled %d arrivals, one Start %d", len(twice), len(once))
		}
	})
}

func TestSetUsersGrowAndShrink(t *testing.T) {
	t.Parallel()
	eng, tgt := setup(t, 5*time.Millisecond)
	wl, err := NewClosedLoop(eng, rng.New(5).Split("wl"), tgt, ClosedLoopConfig{
		Users: 10, ThinkTime: 100 * time.Millisecond, Stagger: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl.Start()
	eng.Schedule(2*time.Second, func() { wl.SetUsers(40) })
	eng.Schedule(4*time.Second, func() { wl.SetUsers(3) })
	if err := eng.Run(1900 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if wl.Live() != 10 {
		t.Fatalf("live = %d, want 10", wl.Live())
	}
	if err := eng.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if wl.Live() != 40 || wl.Users() != 40 {
		t.Fatalf("after grow: live=%d users=%d", wl.Live(), wl.Users())
	}
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if wl.Live() != 3 {
		t.Fatalf("after shrink: live=%d, want 3", wl.Live())
	}
	// The rate should now reflect 3 users.
	tgt.total = 0
	before := wl.TotalCompleted()
	if err := eng.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	rate := float64(wl.TotalCompleted()-before) / 10.0
	want := 3.0 / 0.105
	if math.Abs(rate-want)/want > 0.25 {
		t.Fatalf("rate after shrink = %v, want ~%v", rate, want)
	}
}

func TestStopRetiresUsers(t *testing.T) {
	t.Parallel()
	eng, tgt := setup(t, time.Millisecond)
	wl, err := NewClosedLoop(eng, rng.New(6).Split("wl"), tgt, ClosedLoopConfig{Users: 10})
	if err != nil {
		t.Fatal(err)
	}
	wl.Start()
	eng.Schedule(time.Second, wl.Stop)
	if err := eng.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if wl.Live() != 0 {
		t.Fatalf("live after stop = %d", wl.Live())
	}
	total := wl.TotalCompleted()
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if wl.TotalCompleted() != total {
		t.Fatal("requests issued after Stop")
	}
	// SetUsers after Stop must be ignored.
	wl.SetUsers(5)
	if wl.Users() != 0 {
		t.Fatal("SetUsers after Stop changed population")
	}
}

// TestClosedLoopCompletionCounts checks the generator's completion count
// against the target's own tallies.
func TestClosedLoopCompletionCounts(t *testing.T) {
	t.Parallel()
	eng, tgt := setup(t, 10*time.Millisecond)
	wl, err := NewClosedLoop(eng, rng.New(7).Split("wl"), tgt, ClosedLoopConfig{
		Users: 5, Stagger: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl.Start()
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if tgt.completed == 0 || tgt.total == 0 {
		t.Fatalf("target saw %d issued, %d completed", tgt.total, tgt.completed)
	}
	if got := wl.TotalCompleted(); got != uint64(tgt.completed) {
		t.Fatalf("TotalCompleted = %d, target completed %d", got, tgt.completed)
	}
	// Zero think time keeps every user in flight: issued = completed + users.
	if tgt.total != tgt.completed+5 {
		t.Fatalf("issued %d, completed %d, want a gap of 5 in-flight users", tgt.total, tgt.completed)
	}
	if wl.Users() != 5 {
		t.Fatalf("users = %d", wl.Users())
	}
}

func TestTraceDrivenFollowsTrace(t *testing.T) {
	t.Parallel()
	eng, tgt := setup(t, time.Millisecond)
	tr, err := trace.New("step", []trace.Point{
		{At: 0, Users: 5},
		{At: 10 * time.Second, Users: 30},
		{At: 20 * time.Second, Users: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	td, err := NewTraceDriven(eng, rng.New(8).Split("wl"), tgt, tr, 50*time.Millisecond, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	td.Start()
	if err := eng.Run(9 * time.Second); err != nil {
		t.Fatal(err)
	}
	if td.Loop().Users() != 5 {
		t.Fatalf("users at 9s = %d", td.Loop().Users())
	}
	if err := eng.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if td.Loop().Users() != 30 {
		t.Fatalf("users at 15s = %d", td.Loop().Users())
	}
	if err := eng.Run(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	if td.Loop().Users() != 2 {
		t.Fatalf("users at 25s = %d", td.Loop().Users())
	}
	td.Stop()
	if err := eng.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if td.Loop().Live() != 0 {
		t.Fatalf("live after stop = %d", td.Loop().Live())
	}
	if td.Trace() != tr {
		t.Fatal("Trace accessor wrong")
	}
}

func TestTraceDrivenNilTrace(t *testing.T) {
	t.Parallel()
	eng, tgt := setup(t, time.Millisecond)
	if _, err := NewTraceDriven(eng, rng.New(1), tgt, nil, 0, 0); !errors.Is(err, ErrBadWorkload) {
		t.Fatalf("err = %v", err)
	}
}

func TestTraceDrivenStartIdempotent(t *testing.T) {
	t.Parallel()
	eng, tgt := setup(t, time.Millisecond)
	tr, err := trace.New("c", []trace.Point{{At: 0, Users: 3}})
	if err != nil {
		t.Fatal(err)
	}
	td, err := NewTraceDriven(eng, rng.New(9).Split("wl"), tgt, tr, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	td.Start()
	td.Start()
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tgt.peak > 3 {
		t.Fatalf("peak = %d", tgt.peak)
	}
}

// arrivalLog records when each request reaches the wrapped target.
type arrivalLog struct {
	*fakeTarget
	at []time.Duration
}

func (a *arrivalLog) Inject(done func(rt time.Duration, ok bool)) {
	a.at = append(a.at, a.eng.Now())
	a.fakeTarget.Inject(done)
}

func (a *arrivalLog) InjectClass(_ int, _ uint64, done func(rt time.Duration, ok bool)) {
	a.Inject(done)
}

// TestOpenLoopRate runs a constant-rate open loop: completions match the
// rate, and the arrival times are exactly the exponential gaps
// delayFromSeconds(Exp(1/rate)) drawn in order from the generator's split.
func TestOpenLoopRate(t *testing.T) {
	t.Parallel()
	eng, tgt := setup(t, time.Millisecond)
	log := &arrivalLog{fakeTarget: tgt}
	ol, err := NewOpenLoopGen(eng, rng.New(10).Split("wl"), log, ConstantRate(200))
	if err != nil {
		t.Fatal(err)
	}
	ol.Start()
	if err := eng.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	rate := float64(tgt.completed) / 30.0
	if math.Abs(rate-200)/200 > 0.05 {
		t.Fatalf("rate = %v, want ~200", rate)
	}
	if ol.Scheduled() != uint64(len(log.at)) {
		t.Fatalf("scheduled %d, target saw %d arrivals", ol.Scheduled(), len(log.at))
	}
	rnd := rng.New(10).Split("wl")
	var at time.Duration
	for i, got := range log.at {
		at += delayFromSeconds(rnd.Exp(1 / 200.0))
		if got != at {
			t.Fatalf("arrival %d at %v, want %v", i, got, at)
		}
	}
}

func TestOpenLoopValidationAndStop(t *testing.T) {
	t.Parallel()
	eng, tgt := setup(t, time.Millisecond)
	if _, err := NewOpenLoopGen(eng, rng.New(1), tgt, ConstantRate(0)); !errors.Is(err, ErrBadWorkload) {
		t.Fatalf("zero rate: %v", err)
	}
	ol, err := NewOpenLoopGen(eng, rng.New(11).Split("wl"), tgt, ConstantRate(100))
	if err != nil {
		t.Fatal(err)
	}
	ol.Start()
	eng.Schedule(time.Second, ol.Stop)
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	after := tgt.completed
	if after == 0 || ol.Scheduled() != uint64(after) {
		t.Fatalf("scheduled %d, completed %d before the stop settled", ol.Scheduled(), after)
	}
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tgt.completed != after {
		t.Fatal("arrivals after Stop")
	}
}

// TestDelayFromSecondsRounding pins the sample-to-delay conversion: draws
// round half-up to the nanosecond (the old conversion truncated toward
// zero) and a positive draw can never schedule at zero delay — it clamps
// to one engine tick. Zero and negative samples stay the degenerate
// zero-delay mode.
func TestDelayFromSecondsRounding(t *testing.T) {
	cases := []struct {
		sec  float64
		want time.Duration
	}{
		{0, 0},
		{-1, 0},
		{1e-12, 1},  // sub-nanosecond clamps to one tick
		{0.4e-9, 1}, // would truncate to 0
		{1.4e-9, 1}, // rounds down
		{1.6e-9, 2}, // truncation would lose this nanosecond
		{3.0, 3 * time.Second},
		{2.9999999996, 3 * time.Second}, // half-up at the ns boundary
	}
	for _, c := range cases {
		if got := delayFromSeconds(c.sec); got != c.want {
			t.Errorf("delayFromSeconds(%v) = %v, want %v", c.sec, got, c.want)
		}
	}
}

// TestExpDelayNeverZeroForPositiveMean is the think-time regression test:
// with any positive mean, scheduled think delays are at least one engine
// tick, so a user can never re-arrive in the same event timestamp as its
// completion. A non-positive mean keeps the zero-think mode and draw
// parity (no randomness consumed).
func TestExpDelayNeverZeroForPositiveMean(t *testing.T) {
	rnd := rng.New(7)
	for i := 0; i < 100000; i++ {
		if d := expDelay(rnd, time.Nanosecond); d < 1 {
			t.Fatalf("draw %d: expDelay(1ns mean) = %v < 1 tick", i, d)
		}
	}
	before := *rnd
	if d := expDelay(rnd, 0); d != 0 {
		t.Fatalf("expDelay(0) = %v, want 0", d)
	}
	if *rnd != before {
		t.Fatal("expDelay(0) consumed randomness; zero-think draw parity broken")
	}
}

// BenchmarkClosedLoopCycle measures one classless closed-loop cycle: the
// request, its synchronous completion, the think-time draw and the
// reschedule, for 1000 users with a 1 ms mean think time against the
// cheapest target. The user's callbacks are bound once, so a cycle
// allocates nothing; the gate (BENCH_engine.baseline.json) fails if it
// ever gains an allocation.
func BenchmarkClosedLoopCycle(b *testing.B) {
	eng := sim.NewEngine()
	target := &countTarget{}
	loop, err := NewClosedLoop(eng, rng.New(1).Split("wl"), target,
		ClosedLoopConfig{Users: 1000, ThinkTime: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	loop.Start()
	// Warm past the 1 s stagger so every user is cycling and the engine's
	// arena is grown.
	horizon := 2 * time.Second
	if err := eng.Run(horizon); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	goal := target.n + uint64(b.N)
	for target.n < goal {
		horizon += time.Millisecond
		if err := eng.Run(horizon); err != nil {
			b.Fatal(err)
		}
	}
}

// flakyTarget answers every request synchronously; with fail set, every
// other request fails.
type flakyTarget struct {
	n    uint64
	fail bool
}

func (t *flakyTarget) Inject(done func(rt time.Duration, ok bool)) {
	t.n++
	done(time.Millisecond, !t.fail || t.n%2 == 0)
}

func (t *flakyTarget) InjectClass(_ int, _ uint64, done func(rt time.Duration, ok bool)) {
	t.Inject(done)
}

// TestClosedLoopCycleAllocatesNothing pins the closed loop's steady state
// at zero allocations: once every user has cycled (and, with a retrier,
// retried), the callbacks bound per (user record, attempt) are reused, so
// requests, retries and think-time reschedules allocate nothing — for
// classless users sharing one record and for class-mode users with a
// record each.
func TestClosedLoopCycleAllocatesNothing(t *testing.T) {
	classes := []Class{{Name: "browse", Weight: 3}, {Name: "buy", Weight: 1, Priority: 1}}
	cases := []struct {
		name    string
		classes []Class
		retry   bool
	}{
		{"classless", nil, false},
		{"classes", classes, false},
		{"classless-retrier", nil, true},
		{"classes-retrier", classes, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			target := &flakyTarget{fail: tc.retry}
			loop, err := NewClosedLoop(eng, rng.New(1).Split("wl"), target,
				ClosedLoopConfig{Users: 100, ThinkTime: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if tc.classes != nil {
				if err := loop.SetClasses(tc.classes); err != nil {
					t.Fatal(err)
				}
			}
			if tc.retry {
				ret, err := resilience.NewRetrier(resilience.RetryPolicy{
					MaxAttempts: 3, BaseBackoff: time.Millisecond,
				}, rng.New(2))
				if err != nil {
					t.Fatal(err)
				}
				loop.SetRetrier(ret)
			}
			loop.Start()
			// Warm past the 1 s stagger so every user has cycled and
			// every attempt number has been bound.
			horizon := 2 * time.Second
			if err := eng.Run(horizon); err != nil {
				t.Fatal(err)
			}
			before, retries := loop.TotalCompleted(), loop.TotalRetries()
			allocs := testing.AllocsPerRun(100, func() {
				horizon += time.Millisecond
				if err := eng.Run(horizon); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady closed loop allocates %.2f per 1 ms step, want 0", allocs)
			}
			if loop.TotalCompleted() == before {
				t.Fatal("no request completed during the measured steps")
			}
			if tc.retry && loop.TotalRetries() == retries {
				t.Fatal("no retry issued during the measured steps")
			}
		})
	}
}
