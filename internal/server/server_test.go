package server

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"dcm/internal/model"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// linearParams is a simple noiseless law: S*(N) = 10ms + 1ms(N-1).
var linearParams = model.Params{S0: 0.010, Alpha: 0.001, Beta: 1e-9, Gamma: 1}

func newServer(t *testing.T, pool int) (*sim.Engine, *Server) {
	t.Helper()
	eng := sim.NewEngine()
	srv, err := New(eng, rng.New(1).Split("srv"), Config{
		Name:     "s1",
		Model:    linearParams,
		PoolSize: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, srv
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	r := rng.New(1)
	cases := []Config{
		{}, // empty name
		{Name: "x", PoolSize: 0, Model: linearParams},         // bad pool
		{Name: "x", PoolSize: 1},                              // zero model
		{Name: "x", PoolSize: 1, Model: model.Params{S0: -1}}, // bad model
	}
	for i, cfg := range cases {
		if _, err := New(eng, r, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
	if _, err := New(nil, r, Config{Name: "x", PoolSize: 1, Model: linearParams}); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestSingleRequestServiceTime(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 4)
	var done sim.Time
	srv.Acquire(func(sess *Session) {
		sess.Exec(func() {
			done = eng.Now()
			sess.Release()
		})
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// Lone request: S*(1) = S0 = 10ms.
	if done != 10*time.Millisecond {
		t.Fatalf("completion at %v, want 10ms", done)
	}
	if srv.Active() != 0 {
		t.Fatalf("active = %d after release", srv.Active())
	}
}

func TestConcurrencySlowsBursts(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 2)
	var first, second sim.Time
	for i := 0; i < 2; i++ {
		i := i
		srv.Acquire(func(sess *Session) {
			sess.Exec(func() {
				if i == 0 {
					first = eng.Now()
				} else {
					second = eng.Now()
				}
				sess.Release()
			})
		})
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// Burst duration is sampled when the burst starts: the first request
	// starts alone (N=1 → 10ms), the second starts after the first was
	// admitted (N=2 → S*(2) ≈ 11ms).
	if first != 10*time.Millisecond {
		t.Fatalf("first completion at %v, want 10ms", first)
	}
	if second < 11*time.Millisecond || second > 11*time.Millisecond+time.Microsecond {
		t.Fatalf("second completion at %v, want ~11ms", second)
	}
}

func TestQueueingFIFO(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 1)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		srv.Acquire(func(sess *Session) {
			sess.Exec(func() {
				order = append(order, i)
				sess.Release()
			})
		})
	}
	if srv.QueueLen() != 2 {
		t.Fatalf("queue = %d, want 2", srv.QueueLen())
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order = %v", order)
		}
	}
}

func TestPoolLimitEnforced(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 3)
	peak := 0
	for i := 0; i < 10; i++ {
		srv.Acquire(func(sess *Session) {
			if srv.Active() > peak {
				peak = srv.Active()
			}
			sess.Exec(func() { sess.Release() })
		})
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Fatalf("active exceeded pool: %d", peak)
	}
	if srv.TakeSample().Completions != 10 {
		t.Fatalf("completions = %d", srv.TakeSample().Completions)
	}
}

func TestSetPoolSizeGrowAdmitsWaiters(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 1)
	started := 0
	for i := 0; i < 4; i++ {
		srv.Acquire(func(sess *Session) {
			started++
			sess.Exec(func() { sess.Release() })
		})
	}
	if started != 1 {
		t.Fatalf("started = %d before grow", started)
	}
	srv.SetPoolSize(4)
	if started != 4 {
		t.Fatalf("started = %d after grow, want 4", started)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSetPoolSizeShrinkGraceful(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 4)
	completed := 0
	for i := 0; i < 4; i++ {
		srv.Acquire(func(sess *Session) {
			sess.Exec(func() {
				completed++
				sess.Release()
			})
		})
	}
	if srv.Active() != 4 {
		t.Fatalf("active = %d", srv.Active())
	}
	srv.SetPoolSize(1)
	if srv.Active() != 4 {
		t.Fatal("shrink interrupted in-flight requests")
	}
	// New arrival must wait until the pool drains below 1.
	admitted := false
	srv.Acquire(func(sess *Session) {
		admitted = true
		if srv.Active() > 1 {
			t.Errorf("admitted with active = %d after shrink to 1", srv.Active())
		}
		sess.Exec(func() { sess.Release() })
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if completed != 4 || !admitted {
		t.Fatalf("completed=%d admitted=%v", completed, admitted)
	}
}

func TestSetPoolSizeClampsToOne(t *testing.T) {
	t.Parallel()
	_, srv := newServer(t, 2)
	srv.SetPoolSize(0)
	if srv.PoolSize() != 1 {
		t.Fatalf("pool = %d", srv.PoolSize())
	}
}

func TestAcquireNilIgnored(t *testing.T) {
	t.Parallel()
	_, srv := newServer(t, 1)
	srv.Acquire(nil)
	if srv.Active() != 0 || srv.QueueLen() != 0 {
		t.Fatal("nil acquire changed state")
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 1)
	srv.Acquire(func(sess *Session) {
		sess.Exec(func() {
			sess.Release()
			defer func() {
				if recover() == nil {
					t.Error("double release did not panic")
				}
			}()
			sess.Release()
		})
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestExecAfterReleasePanics(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 1)
	srv.Acquire(func(sess *Session) {
		sess.Exec(func() {
			sess.Release()
			defer func() {
				if recover() == nil {
					t.Error("Exec after release did not panic")
				}
			}()
			sess.Exec(nil)
		})
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseWhileExecutingPanics(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 1)
	srv.Acquire(func(sess *Session) {
		sess.Exec(func() { sess.Release() })
		defer func() {
			if recover() == nil {
				t.Error("Release while executing did not panic")
			}
		}()
		sess.Release()
	})
	_ = eng // the panic happens synchronously during Acquire above
}

func TestAcceptingFlag(t *testing.T) {
	t.Parallel()
	_, srv := newServer(t, 1)
	if !srv.Accepting() {
		t.Fatal("new server not accepting")
	}
	srv.SetAccepting(false)
	if srv.Accepting() {
		t.Fatal("SetAccepting(false) ignored")
	}
}

func TestSampleThroughputAndUtilization(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 1)
	// Saturate the server for 1 simulated second: each burst is 10ms, so
	// ~100 completions and ~100% utilization.
	var loop func()
	loop = func() {
		srv.Acquire(func(sess *Session) {
			sess.Exec(func() {
				sess.Release()
				loop()
			})
		})
	}
	loop()
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	s := srv.TakeSample()
	if s.Completions < 95 || s.Completions > 101 {
		t.Fatalf("completions = %d, want ~100", s.Completions)
	}
	if s.Utilization < 0.95 || s.Utilization > 1.0 {
		t.Fatalf("utilization = %v, want ~1", s.Utilization)
	}
	if s.MeanHeld < 0.9 || s.MeanHeld > 1.01 {
		t.Fatalf("mean concurrency = %v, want ~1", s.MeanHeld)
	}
	if s.Size != 1 {
		t.Fatalf("pool size = %d", s.Size)
	}
}

func TestSampleIdleServer(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 2)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	s := srv.TakeSample()
	if s.Completions != 0 || s.Utilization != 0 || s.InUse != 0 {
		t.Fatalf("idle sample = %+v", s)
	}
}

func TestSampleIntervalsIndependent(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 1)
	srv.Acquire(func(sess *Session) {
		sess.Exec(func() { sess.Release() })
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	first := srv.TakeSample()
	if first.Completions != 1 {
		t.Fatalf("first = %+v", first)
	}
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	second := srv.TakeSample()
	if second.Completions != 0 || second.Utilization != 0 {
		t.Fatalf("second interval not reset: %+v", second)
	}
}

// TestThroughputCurveMatchesModel is the package's key fidelity check: a
// saturated server at fixed concurrency N must complete requests at rate
// N/S*(N) predicted by Equation 7 (γ=K=1).
func TestThroughputCurveMatchesModel(t *testing.T) {
	t.Parallel()
	params := model.Params{S0: 7.19e-3, Alpha: 5.04e-3, Beta: 1.65e-6, Gamma: 1}
	for _, n := range []int{1, 10, 36, 100, 200} {
		n := n
		eng := sim.NewEngine()
		srv, err := New(eng, rng.New(2).Split("s"), Config{
			Name: "db", Model: params, PoolSize: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		// n closed-loop workers with zero think time.
		var loop func()
		loop = func() {
			srv.Acquire(func(sess *Session) {
				sess.Exec(func() {
					sess.Release()
					loop()
				})
			})
		}
		for i := 0; i < n; i++ {
			loop()
		}
		const horizon = 20 * time.Second
		if err := eng.Run(horizon); err != nil {
			t.Fatal(err)
		}
		got := float64(srv.TakeSample().Completions) / horizon.Seconds()
		want := params.Throughput(float64(n), 1)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("N=%d: throughput %.1f, model predicts %.1f", n, got, want)
		}
	}
}

// TestThroughputPeaksNearOptimum: the simulated server's saturated
// throughput must peak near N_b and decline beyond it.
func TestThroughputPeaksNearOptimum(t *testing.T) {
	t.Parallel()
	params := model.Params{S0: 7.19e-3, Alpha: 5.04e-3, Beta: 1.65e-6, Gamma: 1}
	measure := func(n int) float64 {
		eng := sim.NewEngine()
		srv, err := New(eng, rng.New(3).Split("s"), Config{
			Name: "db", Model: params, PoolSize: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		var loop func()
		loop = func() {
			srv.Acquire(func(sess *Session) {
				sess.Exec(func() { sess.Release(); loop() })
			})
		}
		for i := 0; i < n; i++ {
			loop()
		}
		if err := eng.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		return float64(srv.TakeSample().Completions)
	}
	x36 := measure(36)
	if x5, x600 := measure(5), measure(600); x36 <= x5 || x36 <= x600 {
		t.Fatalf("throughput not peaked at N_b: X(5)=%v X(36)=%v X(600)=%v", x5, x36, x600)
	}
}

func TestNoiseIsMeanPreserving(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	srv, err := New(eng, rng.New(7).Split("s"), Config{
		Name: "n", Model: linearParams, PoolSize: 1, NoiseSigma: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var loop func()
	loop = func() {
		srv.Acquire(func(sess *Session) {
			sess.Exec(func() { sess.Release(); loop() })
		})
	}
	loop()
	if err := eng.Run(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Mean burst 10ms → ~10000 completions in 100s; lognormal noise with
	// mean 1 should keep the rate within a few percent.
	got := float64(srv.TakeSample().Completions)
	if math.Abs(got-10000)/10000 > 0.05 {
		t.Fatalf("noisy throughput = %v, want ~10000", got)
	}
}

// TestInvariantActiveNeverExceedsPool drives a random schedule of arrivals
// and pool resizes and checks the admission invariant throughout.
func TestInvariantActiveNeverExceedsPool(t *testing.T) {
	t.Parallel()
	prop := func(seed uint64, ops []uint8) bool {
		eng := sim.NewEngine()
		srv, err := New(eng, rng.New(seed).Split("s"), Config{
			Name: "p", Model: linearParams, PoolSize: 2,
		})
		if err != nil {
			return false
		}
		ok := true
		check := func() {
			// Active may transiently exceed a shrunken pool (graceful
			// shrink), but must never exceed the largest pool size ever
			// admitted against. We track violations of admission: a grant
			// happening while active >= pool.
			if srv.Active() < 0 || srv.QueueLen() < 0 {
				ok = false
			}
		}
		at := time.Duration(0)
		for _, op := range ops {
			at += time.Duration(op%7) * time.Millisecond
			switch op % 3 {
			case 0, 1:
				eng.ScheduleAt(at, func() {
					before := srv.Active()
					srv.Acquire(func(sess *Session) {
						if before >= srv.PoolSize() && srv.Active() > srv.PoolSize() {
							// Admission above pool size is only legal via
							// grandfathered sessions after a shrink, which
							// Acquire never creates.
							ok = false
						}
						sess.Exec(func() { sess.Release(); check() })
					})
				})
			case 2:
				n := int(op%5) + 1
				eng.ScheduleAt(at, func() { srv.SetPoolSize(n); check() })
			}
		}
		if err := eng.Run(10 * time.Second); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExecDemandScalesBaseWork(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 4)
	var light, heavy sim.Time
	srv.Acquire(func(sess *Session) {
		sess.ExecDemand(0.5, func() {
			light = eng.Now()
			sess.Release()
		})
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	start := eng.Now()
	srv.Acquire(func(sess *Session) {
		sess.ExecDemand(3, func() {
			heavy = eng.Now() - start
			sess.Release()
		})
	})
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// linearParams S0 = 10ms: demand 0.5 -> 5ms, demand 3 -> 30ms.
	if light != 5*time.Millisecond {
		t.Fatalf("light burst = %v, want 5ms", light)
	}
	if heavy != 30*time.Millisecond {
		t.Fatalf("heavy burst = %v, want 30ms", heavy)
	}
}

func TestExecDemandNonPositiveClamped(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 1)
	done := false
	srv.Acquire(func(sess *Session) {
		sess.ExecDemand(-1, func() {
			done = true
			sess.Release()
		})
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("negative-demand burst never completed")
	}
}

func TestKillFailsQueuedWaiters(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 1)
	var got []*Session
	for i := 0; i < 3; i++ {
		srv.Acquire(func(sess *Session) { got = append(got, sess) })
	}
	if len(got) != 1 {
		t.Fatalf("granted = %d", len(got))
	}
	srv.Kill()
	if len(got) != 3 {
		t.Fatalf("queued waiters not flushed: %d", len(got))
	}
	if got[1] != nil || got[2] != nil {
		t.Fatal("killed waiters received live sessions")
	}
	if !srv.Dead() || srv.Accepting() {
		t.Fatal("kill state wrong")
	}
	if !got[0].Killed() {
		t.Fatal("in-flight session not marked killed")
	}
	// New acquires fail immediately.
	srv.Acquire(func(sess *Session) {
		if sess != nil {
			t.Error("acquire on dead server granted a session")
		}
	})
	srv.Kill() // idempotent
	_ = eng
}

func TestKillDuringExecCompletesAsKilled(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 1)
	completed := false
	srv.Acquire(func(sess *Session) {
		sess.Exec(func() {
			completed = true
			if !sess.Killed() {
				t.Error("session not marked killed at completion")
			}
			sess.Release()
		})
	})
	eng.Schedule(time.Millisecond, srv.Kill)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("in-flight burst never completed")
	}
	if srv.Active() != 0 {
		t.Fatalf("active = %d", srv.Active())
	}
}

func TestAccessors(t *testing.T) {
	t.Parallel()
	_, srv := newServer(t, 2)
	if srv.Name() != "s1" {
		t.Fatalf("Name = %q", srv.Name())
	}
	if srv.Params() != linearParams {
		t.Fatalf("Params = %+v", srv.Params())
	}
}

func TestBetaOnConfiguredCrosstalk(t *testing.T) {
	t.Parallel()
	// beta large enough to observe; alpha zero for clean numbers.
	params := model.Params{S0: 0.010, Alpha: 0, Beta: 1e-4, Gamma: 1}
	eng := sim.NewEngine()
	srv, err := New(eng, rng.New(4).Split("s"), Config{
		Name:             "db",
		Model:            params,
		PoolSize:         10,
		BetaOnConfigured: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetConfiguredConcurrency(10)
	if srv.ConfiguredConcurrency() != 10 {
		t.Fatalf("configured = %d", srv.ConfiguredConcurrency())
	}
	var done sim.Time
	srv.Acquire(func(sess *Session) {
		sess.Exec(func() {
			done = eng.Now()
			sess.Release()
		})
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// A lone request pays the *allocated* crosstalk: S0 + beta*10*9 = 19ms
	// (instead of 10ms at instantaneous n=1).
	if done != 19*time.Millisecond {
		t.Fatalf("burst = %v, want 19ms with configured crosstalk", done)
	}
	// Negative configured clamps to zero (falls back to instantaneous).
	srv.SetConfiguredConcurrency(-3)
	if srv.ConfiguredConcurrency() != 0 {
		t.Fatalf("negative configured = %d", srv.ConfiguredConcurrency())
	}
}

func TestThrashCapBoundsPenalty(t *testing.T) {
	t.Parallel()
	params := model.Params{S0: 0.001, Alpha: 0, Beta: 1e-12, Gamma: 1}
	eng := sim.NewEngine()
	srv, err := New(eng, rng.New(4).Split("s"), Config{
		Name:       "t",
		Model:      params,
		PoolSize:   100,
		ThrashKnee: 1,
		ThrashCoef: 1, // absurdly steep: (n-1)^2 seconds
		ThrashCap:  0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fill to n=10: uncapped penalty would be 81s; cap limits to 50ms.
	var last sim.Time
	for i := 0; i < 10; i++ {
		srv.Acquire(func(sess *Session) {
			sess.Exec(func() {
				last = eng.Now()
				sess.Release()
			})
		})
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if last > 600*time.Millisecond {
		t.Fatalf("capped thrash still took %v", last)
	}
	if last < 20*time.Millisecond {
		t.Fatalf("thrash cap seems to have removed the penalty entirely: %v", last)
	}
}

func TestExponentialDistributionPreservesMean(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	srv, err := New(eng, rng.New(6).Split("s"), Config{
		Name:         "x",
		Model:        model.Params{S0: 0.010, Alpha: 0, Beta: 1e-12, Gamma: 1},
		PoolSize:     1,
		Distribution: DistExponential,
	})
	if err != nil {
		t.Fatal(err)
	}
	var loop func()
	loop = func() {
		srv.Acquire(func(sess *Session) {
			sess.Exec(func() { sess.Release(); loop() })
		})
	}
	loop()
	if err := eng.Run(200 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Mean 10ms bursts: ~20000 completions over 200s within a few percent.
	got := float64(srv.TakeSample().Completions)
	if math.Abs(got-20000)/20000 > 0.05 {
		t.Fatalf("exponential service mean drifted: %v completions", got)
	}
}

func TestDegradeFactorInflatesServiceTime(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 4)
	srv.SetDegradeFactor(3)
	if got := srv.DegradeFactor(); got != 3 {
		t.Fatalf("DegradeFactor = %v", got)
	}
	var done sim.Time
	srv.Acquire(func(sess *Session) {
		sess.Exec(func() {
			done = eng.Now()
			sess.Release()
		})
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// Lone request at degrade 3: S0 + (3-1)·S0 = 30ms instead of 10ms.
	if done != 30*time.Millisecond {
		t.Fatalf("degraded completion at %v, want 30ms", done)
	}
}

func TestDegradeFactorRepairs(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 4)
	srv.SetDegradeFactor(2)
	srv.SetDegradeFactor(1)
	var done sim.Time
	srv.Acquire(func(sess *Session) {
		sess.Exec(func() {
			done = eng.Now()
			sess.Release()
		})
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if done != 10*time.Millisecond {
		t.Fatalf("repaired completion at %v, want 10ms", done)
	}
	// Factors below 1 clamp to 1: degrade never speeds a server up.
	srv.SetDegradeFactor(0.25)
	if got := srv.DegradeFactor(); got != 1 {
		t.Fatalf("clamped DegradeFactor = %v", got)
	}
}
