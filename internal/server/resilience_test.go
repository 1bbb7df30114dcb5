package server

import (
	"testing"
	"time"

	"dcm/internal/metrics"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

func newResilientServer(t *testing.T, cfg Config) (*sim.Engine, *Server) {
	t.Helper()
	eng := sim.NewEngine()
	if cfg.Model == (Config{}).Model {
		cfg.Model = linearParams
	}
	if cfg.Name == "" {
		cfg.Name = "s1"
	}
	srv, err := New(eng, rng.New(1).Split("srv"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, srv
}

// TestQueuedDeadlineTimesOutWithoutThread pins the core deadline
// invariant: a request whose deadline expires while queued fails with
// DispositionTimeout and never occupies a thread, and the thread that
// frees up afterwards goes to the next live waiter.
func TestQueuedDeadlineTimesOutWithoutThread(t *testing.T) {
	t.Parallel()
	eng, srv := newResilientServer(t, Config{PoolSize: 1})
	var held *Session
	srv.Acquire(func(sess *Session) { held = sess })

	var expired metrics.Disposition
	srv.AcquireDeadlineCritical(0, time.Second, false, func(sess *Session, d metrics.Disposition) {
		if sess != nil {
			t.Error("expired waiter granted a thread")
		}
		expired = d
	})
	granted := false
	srv.AcquireDeadlineCritical(0, 0, false, func(sess *Session, d metrics.Disposition) {
		if sess == nil {
			t.Errorf("live waiter failed with %v", d)
			return
		}
		granted = true
		sess.Release()
	})
	eng.Schedule(1500*time.Millisecond, func() {
		if expired != metrics.DispositionTimeout {
			t.Errorf("disposition = %v at 1.5s, want timeout", expired)
		}
		if srv.QueueLen() != 1 {
			t.Errorf("queue len = %d after expiry, want 1", srv.QueueLen())
		}
	})
	eng.Schedule(2*time.Second, func() { held.Release() })
	if err := eng.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatal("live waiter behind the expired one never granted")
	}
	if timeouts := srv.TakeSample().TimedOut; srv.Active() != 0 || timeouts != 1 {
		t.Fatalf("active = %d, timeouts = %d", srv.Active(), timeouts)
	}
}

// TestBoundedQueueRejects checks admission control: a request arriving
// with MaxQueue waiters already queued is rejected synchronously and
// never enters the queue.
func TestBoundedQueueRejects(t *testing.T) {
	t.Parallel()
	eng, srv := newResilientServer(t, Config{PoolSize: 1, MaxQueue: 2})
	var held *Session
	srv.Acquire(func(sess *Session) { held = sess })
	served := 0
	for i := 0; i < 2; i++ {
		srv.AcquireDeadlineCritical(0, 0, false, func(sess *Session, d metrics.Disposition) {
			if sess == nil {
				t.Errorf("queued request failed: %v", d)
				return
			}
			served++
			sess.Release()
		})
	}
	rejected := false
	srv.AcquireDeadlineCritical(0, 0, false, func(sess *Session, d metrics.Disposition) {
		if sess != nil || d != metrics.DispositionRejected {
			t.Errorf("sess = %v, disposition = %v, want rejection", sess, d)
		}
		rejected = true
	})
	if !rejected {
		t.Fatal("over-bound request not rejected synchronously")
	}
	if srv.QueueLen() != 2 {
		t.Fatalf("queue len = %d, want 2", srv.QueueLen())
	}
	eng.Schedule(time.Second, func() { held.Release() })
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rejections := srv.TakeSample().Rejected; served != 2 || rejections != 1 {
		t.Fatalf("served = %d, rejections = %d", served, rejections)
	}
}

// TestCoDelShedsStandingQueue checks the shedder wiring: with a saturated
// server whose queue delay stays far above the CoDel target, some dequeues
// are shed with DispositionShed instead of being granted a thread.
func TestCoDelShedsStandingQueue(t *testing.T) {
	t.Parallel()
	eng, srv := newResilientServer(t, Config{
		PoolSize:    1,
		CoDelTarget: 20 * time.Millisecond,
		// One shed opportunity per 40ms of standing delay.
		CoDelInterval: 40 * time.Millisecond,
	})
	shed, ok := 0, 0
	// 200 requests at t=0 against a ~10ms/burst single thread: the queue
	// delay ramps far past the 20ms target.
	for i := 0; i < 200; i++ {
		srv.AcquireDeadlineCritical(0, 0, false, func(sess *Session, d metrics.Disposition) {
			if sess == nil {
				if d != metrics.DispositionShed {
					t.Errorf("failure disposition = %v, want shed", d)
				}
				shed++
				return
			}
			ok++
			sess.Exec(func() { sess.Release() })
		})
	}
	if err := eng.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if shed == 0 {
		t.Fatal("standing queue delay never shed")
	}
	if ok+shed != 200 {
		t.Fatalf("ok %d + shed %d != 200", ok, shed)
	}
	// No sample was taken before, so the first one covers the whole run.
	if got := srv.TakeSample().Shed; got != uint64(shed) {
		t.Fatalf("sampled sheds = %d, callbacks saw %d", got, shed)
	}
	// Shedding is a safety valve, not a drop-all: even against this
	// instantaneous 200-request burst — 2 s of standing delay against a
	// 20 ms target — a substantial share must still be served.
	if ok < 50 {
		t.Fatalf("only %d of 200 served (%d shed)", ok, shed)
	}
}

// TestBurstPreemptedAtDeadline checks deadline propagation into service:
// a burst that would finish past the session deadline is cut short at the
// deadline, frees the CPU and thread then, does not count as a
// completion, and marks the session TimedOut.
func TestBurstPreemptedAtDeadline(t *testing.T) {
	t.Parallel()
	eng, srv := newResilientServer(t, Config{PoolSize: 1})
	var done sim.Time
	srv.AcquireDeadlineCritical(0, 5*time.Millisecond, false, func(sess *Session, d metrics.Disposition) {
		if sess == nil {
			t.Fatalf("acquire failed: %v", d)
		}
		// linearParams: a lone burst takes 10ms > the 5ms deadline.
		sess.Exec(func() {
			done = eng.Now()
			if !sess.TimedOut() {
				t.Error("preempted session not marked TimedOut")
			}
			sess.Release()
		})
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if done != 5*time.Millisecond {
		t.Fatalf("burst ended at %v, want the 5ms deadline", done)
	}
	s := srv.TakeSample()
	if s.Completions != 0 {
		t.Fatalf("preempted burst counted as completion")
	}
	if s.TimedOut != 1 {
		t.Fatalf("timeouts = %d, want 1", s.TimedOut)
	}
	if srv.Active() != 0 {
		t.Fatalf("active = %d after release", srv.Active())
	}
}

// TestDeadlineSampleCounts checks the monitoring surface: TakeSample
// reports the interval's timeouts/rejections/sheds and resets them.
func TestDeadlineSampleCounts(t *testing.T) {
	t.Parallel()
	eng, srv := newResilientServer(t, Config{PoolSize: 1, MaxQueue: 1})
	var held *Session
	srv.Acquire(func(sess *Session) { held = sess })
	srv.AcquireDeadlineCritical(0, time.Millisecond, false, func(*Session, metrics.Disposition) {})
	srv.AcquireDeadlineCritical(0, 0, false, func(sess *Session, _ metrics.Disposition) {
		if sess != nil {
			sess.Release()
		}
	})
	eng.Schedule(10*time.Millisecond, func() { held.Release() })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	s := srv.TakeSample()
	if s.TimedOut != 1 || s.Rejected != 1 || s.Shed != 0 {
		t.Fatalf("sample = timedOut %d, rejected %d, shed %d", s.TimedOut, s.Rejected, s.Shed)
	}
	if s2 := srv.TakeSample(); s2.TimedOut != 0 || s2.Rejected != 0 {
		t.Fatalf("second sample not reset: %+v", s2)
	}
}
