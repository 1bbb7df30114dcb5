package connpool

import (
	"testing"
	"time"

	"dcm/internal/metrics"
)

// TestDeadlineWaiterNeverConsumesConnection pins the resilience invariant:
// a blocked acquisition whose deadline expires fails with
// DispositionTimeout and never consumes a connection — not when the timer
// fires, and not when a connection frees up afterwards. The connection the
// expired waiter would have taken goes to the next live waiter.
func TestDeadlineWaiterNeverConsumesConnection(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 1)
	var held *Conn
	p.Acquire(func(c *Conn) { held = c })

	var expired metrics.Disposition
	p.AcquireDeadline(0, time.Second, func(c *Conn, d metrics.Disposition) {
		if c != nil {
			t.Error("expired waiter granted a connection")
		}
		expired = d
	})
	granted := false
	p.AcquireDeadline(0, 0, func(c *Conn, d metrics.Disposition) {
		if c == nil {
			t.Errorf("live waiter failed with %v", d)
			return
		}
		granted = true
		c.Release()
	})
	check := func() {
		if err := p.CheckInvariant(); err != nil {
			t.Error(err)
		}
	}

	// t=1s: the deadline fires while the connection is still held.
	eng.Schedule(1500*time.Millisecond, func() {
		if expired != metrics.DispositionTimeout {
			t.Errorf("disposition = %v at 1.5s, want timeout", expired)
		}
		if p.Waiting() != 1 {
			t.Errorf("waiting = %d after expiry, want 1", p.Waiting())
		}
		check()
	})
	// t=2s: release; the freed connection must skip the dead slot and go to
	// the live waiter.
	eng.Schedule(2*time.Second, func() { held.Release(); check() })
	if err := eng.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatal("live waiter behind the expired one was never granted")
	}
	if p.InUse() != 0 || p.Free() != 1 {
		t.Fatalf("inUse = %d, free = %d after drain", p.InUse(), p.Free())
	}
	if got := p.TakeSample().TimedOut; got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	check()
}

// TestDeadlineExpiredAtGrantTimeReleasesImmediately covers the grant-time
// race: a connection frees up at the exact timestamp the waiter's deadline
// expires, with the release event ordered before the deadline timer. The
// grant must not hand the connection to the expired waiter — it fails with
// timeout and the connection stays free.
func TestDeadlineExpiredAtGrantTimeReleasesImmediately(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 1)
	var held *Conn
	p.Acquire(func(c *Conn) { held = c })
	// Schedule the release first so it runs before the deadline timer at the
	// shared t=1s timestamp.
	eng.Schedule(time.Second, func() { held.Release() })
	var disp metrics.Disposition
	calls := 0
	p.AcquireDeadline(7, time.Second, func(c *Conn, d metrics.Disposition) {
		calls++
		if c != nil {
			t.Error("grant-time-expired waiter received a connection")
		}
		disp = d
	})
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times, want 1", calls)
	}
	if disp != metrics.DispositionTimeout {
		t.Fatalf("disposition = %v, want timeout", disp)
	}
	if p.InUse() != 0 || p.Free() != 1 {
		t.Fatalf("inUse = %d, free = %d: expired waiter consumed the connection", p.InUse(), p.Free())
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestAlreadyExpiredDeadlineFailsWithoutWaiting checks the fast path: an
// acquisition whose deadline has already passed fails synchronously.
func TestAlreadyExpiredDeadlineFailsWithoutWaiting(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 1)
	eng.Schedule(time.Second, func() {
		p.AcquireDeadline(0, 500*time.Millisecond, func(c *Conn, d metrics.Disposition) {
			if c != nil || d != metrics.DispositionTimeout {
				t.Errorf("conn = %v, disposition = %v", c, d)
			}
		})
		if p.Waiting() != 0 || p.InUse() != 0 {
			t.Errorf("waiting = %d, inUse = %d", p.Waiting(), p.InUse())
		}
	})
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestMaxWaitersRejects checks the waiter bound: acquisitions past the
// bound fail immediately with DispositionRejected and do not queue.
func TestMaxWaitersRejects(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 1)
	p.SetMaxWaiters(2)
	var held *Conn
	p.Acquire(func(c *Conn) { held = c })
	grantedBehind := 0
	for i := 0; i < 2; i++ {
		p.AcquireDeadline(0, 0, func(c *Conn, d metrics.Disposition) {
			if c == nil {
				t.Errorf("bounded waiter %d failed: %v", i, d)
				return
			}
			grantedBehind++
			c.Release()
		})
	}
	rejected := false
	p.AcquireDeadline(0, 0, func(c *Conn, d metrics.Disposition) {
		if c != nil || d != metrics.DispositionRejected {
			t.Errorf("conn = %v, disposition = %v, want rejection", c, d)
		}
		rejected = true
	})
	if !rejected {
		t.Fatal("third waiter not rejected synchronously")
	}
	if p.Waiting() != 2 {
		t.Fatalf("waiting = %d, want 2", p.Waiting())
	}
	eng.Schedule(time.Second, func() { held.Release() })
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if grantedBehind != 2 {
		t.Fatalf("granted = %d of 2 queued waiters", grantedBehind)
	}
	if got := p.TakeSample().Rejected; got != 1 {
		t.Fatalf("rejections = %d, want 1", got)
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
