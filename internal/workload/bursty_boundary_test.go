package workload

import (
	"errors"
	"testing"
	"time"

	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// TestBurstyZeroLengthBurst covers the degenerate-dwell boundary: a zero
// SurgeDwell is rejected (the modulating process would busy-loop), while a
// vanishingly short one — a burst of essentially zero length — must run,
// keep flipping state without stalling the event loop, and still serve
// requests at the normal rate.
func TestBurstyZeroLengthBurst(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	tgt := &fakeTarget{eng: eng, delay: time.Millisecond}
	cfg := BurstyConfig{
		Users: 10, NormalThink: 100 * time.Millisecond, SurgeThink: 10 * time.Millisecond,
		NormalDwell: time.Second, SurgeDwell: 0,
	}
	if _, err := NewBurstyLoop(eng, rng.New(5).Split("wl"), tgt, cfg); !errors.Is(err, ErrBadWorkload) {
		t.Fatal("zero surge dwell accepted")
	}
	cfg.SurgeDwell = time.Nanosecond
	bl, err := NewBurstyLoop(eng, rng.New(5).Split("wl"), tgt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bl.Start()
	if err := eng.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// ~10 users / 100ms think over 30s: the zero-length surges must not
	// distort throughput beyond noise (nor hang the run).
	if n := tgt.completed; n < 1000 {
		t.Fatalf("completed = %d, want ≳ normal-rate completions", n)
	}
}

// TestBurstySurgeNoFasterThanNormal covers the rate-ordering boundary: a
// "surge" that thinks *slower* than the normal state (burst rate below
// the base rate) is a misconfiguration and is rejected, while the equality
// boundary — a degenerate surge at exactly the base rate — is legal and
// behaves like a plain closed loop.
func TestBurstySurgeNoFasterThanNormal(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	tgt := &fakeTarget{eng: eng, delay: time.Millisecond}
	cfg := BurstyConfig{
		Users: 5, NormalThink: 100 * time.Millisecond, SurgeThink: 200 * time.Millisecond,
		NormalDwell: time.Second, SurgeDwell: time.Second,
	}
	if _, err := NewBurstyLoop(eng, rng.New(6).Split("wl"), tgt, cfg); !errors.Is(err, ErrBadWorkload) {
		t.Fatal("surge slower than normal accepted")
	}
	cfg.SurgeThink = cfg.NormalThink
	bl, err := NewBurstyLoop(eng, rng.New(6).Split("wl"), tgt, cfg)
	if err != nil {
		t.Fatalf("equal think times rejected: %v", err)
	}
	bl.Start()
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tgt.completed == 0 {
		t.Fatal("degenerate (equal-rate) burst config served nothing")
	}
}

// TestBurstySingleTickBurst covers the shortest meaningful burst: a surge
// dwell equal to one think-time tick, far below the normal dwell. The
// modulating state must visit the surge and return to normal without
// sticking, and the run must complete.
func TestBurstySingleTickBurst(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	tgt := &fakeTarget{eng: eng, delay: time.Millisecond}
	bl, err := NewBurstyLoop(eng, rng.New(7).Split("wl"), tgt, BurstyConfig{
		Users: 20, NormalThink: 100 * time.Millisecond, SurgeThink: 10 * time.Millisecond,
		NormalDwell: 500 * time.Millisecond, SurgeDwell: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	bl.Start()
	surged, recovered := false, false
	stop := eng.Ticker(time.Millisecond, func() {
		if bl.surge {
			surged = true
		} else if surged {
			recovered = true
		}
	})
	defer stop()
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !surged || !recovered {
		t.Fatalf("surged = %v, recovered = %v: single-tick burst stuck", surged, recovered)
	}
	if tgt.completed == 0 {
		t.Fatal("no completions")
	}
}

// failNTarget fails the first n requests then succeeds, instantly.
type failNTarget struct {
	eng  *sim.Engine
	fail int
	seen int
	ok   int
}

func (f *failNTarget) Inject(done func(rt time.Duration, ok bool)) {
	f.seen++
	ok := f.seen > f.fail
	f.eng.Schedule(time.Millisecond, func() {
		if ok {
			f.ok++
		}
		done(time.Millisecond, ok)
	})
}

// TestBurstyLoopRetries checks the retry wiring on the bursty generator:
// failed requests retry through the shared retrier and the retry counter
// advances.
func TestBurstyLoopRetries(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	tgt := &failNTarget{eng: eng, fail: 3}
	bl, err := NewBurstyLoop(eng, rng.New(8).Split("wl"), tgt, BurstyConfig{
		Users: 1, NormalThink: 100 * time.Millisecond, SurgeThink: 10 * time.Millisecond,
		NormalDwell: time.Hour, SurgeDwell: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := resilience.NewRetrier(resilience.RetryPolicy{
		MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bl.SetRetrier(ret)
	bl.Start()
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if bl.TotalRetries() != 3 {
		t.Fatalf("retries = %d, want 3", bl.TotalRetries())
	}
	if tgt.ok == 0 {
		t.Fatal("retried request never completed")
	}
}
