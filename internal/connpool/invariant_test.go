package connpool

import (
	"testing"
	"testing/quick"
	"time"

	"dcm/internal/metrics"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// TestInvariantUnderLeakSchedules drives random Leak/Unleak/Resize/
// Acquire/Release interleavings — the operation mix of a chaos conn-leak
// schedule hitting a pool the APP-agent keeps resizing — and checks the
// size == inUse + free + leaked invariant after every operation. This is
// the regression test for the accounting drift where leaked connections
// were folded into inUse (which also blocked drains, because InUse never
// returned to zero under an unrepaired leak).
func TestInvariantUnderLeakSchedules(t *testing.T) {
	t.Parallel()
	prop := func(ops []uint8) bool {
		eng := sim.NewEngine()
		p, err := New(eng, "p", 3)
		if err != nil {
			return false
		}
		ok := true
		check := func() {
			if err := p.CheckInvariant(); err != nil {
				t.Log(err)
				ok = false
			}
		}
		var held []*Conn
		at := time.Duration(0)
		for _, op := range ops {
			at += time.Millisecond
			op := op
			eng.ScheduleAt(at, func() {
				switch op % 6 {
				case 0, 1:
					p.Acquire(func(c *Conn) { held = append(held, c) })
				case 2:
					if len(held) > 0 {
						held[0].Release()
						held = held[1:]
					}
				case 3:
					p.Leak(int(op%3) + 1)
				case 4:
					p.Unleak(int(op % 5)) // may exceed current leak
				case 5:
					p.Resize(int(op%7) + 1) // may shrink below held+leaked
				}
				check()
			})
		}
		if err := eng.Run(time.Hour); err != nil {
			return false
		}
		// Drain: repair the leak and release everything; the pool must
		// return to a fully free state with no stranded waiters while
		// capacity exists.
		eng.Schedule(time.Millisecond, func() {
			p.Unleak(p.Leaked())
			for _, c := range held {
				c.Release()
			}
			held = nil
			check()
		})
		if err := eng.Run(2 * time.Hour); err != nil {
			return false
		}
		if p.Leaked() != 0 {
			t.Logf("leak survived full repair: %d", p.Leaked())
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLeakDoesNotBlockDrain pins the drain-visible half of the bugfix: a
// pool with an unrepaired leak but no request-held connections must report
// InUse() == 0, the condition scale-in drains poll for.
func TestLeakDoesNotBlockDrain(t *testing.T) {
	t.Parallel()
	_, p := newPool(t, 4)
	var c *Conn
	p.Acquire(func(conn *Conn) { c = conn })
	p.Leak(3)
	if p.InUse() != 1 {
		t.Fatalf("inUse = %d, want 1 (the held conn only)", p.InUse())
	}
	c.Release()
	if p.InUse() != 0 {
		t.Fatalf("inUse = %d after release; a leak must not block drain", p.InUse())
	}
	if p.Leaked() != 3 || p.Free() != 1 {
		t.Fatalf("leaked = %d, free = %d", p.Leaked(), p.Free())
	}
}

// TestResizeBelowHeldOverCommits checks the audited shrink path: shrinking
// below InUse+Leaked leaves the pool over-committed (negative free), never
// admits while over-committed, and the invariant holds throughout.
func TestResizeBelowHeldOverCommits(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 4)
	var conns []*Conn
	for i := 0; i < 3; i++ {
		p.Acquire(func(c *Conn) { conns = append(conns, c) })
	}
	p.Leak(1)
	p.Resize(2) // held 3 + leaked 1 = 4 > 2: over-committed by 2
	if p.Free() != -2 {
		t.Fatalf("free = %d, want -2", p.Free())
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	granted := false
	p.Acquire(func(c *Conn) { granted = true; c.Release() })
	if granted {
		t.Fatal("admitted while over-committed")
	}
	for i, c := range conns {
		c := c
		eng.Schedule(time.Duration(i+1)*time.Second, c.Release)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	// 3 releases against size 2 with 1 leaked: exactly one slot opens.
	if !granted {
		t.Fatal("waiter never admitted after drain below new size")
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolTracerRecordsWaits checks the pool-wait trace events pair up and
// the wait histogram observes every grant.
func TestPoolTracerRecordsWaits(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 1)
	tr := trace.NewRequestTracer(0)
	p.SetTracer(tr, "app")
	var first *Conn
	p.AcquireDeadline(tr.Begin(), 0, func(c *Conn, _ metrics.Disposition) { first = c })
	p.AcquireDeadline(tr.Begin(), 0, func(c *Conn, _ metrics.Disposition) { c.Release() }) // waits 2s
	eng.Schedule(2*time.Second, func() { first.Release() })
	if err := eng.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	bd := tr.Breakdown()
	if len(bd) != 1 || bd[0].Tier != "app" {
		t.Fatalf("breakdown = %+v", bd)
	}
	if bd[0].PoolWait.Count != 2 || bd[0].PoolWait.Max < 1.9 {
		t.Fatalf("pool waits = %+v", bd[0].PoolWait)
	}
	if p.WaitHistogram().Count() != 2 {
		t.Fatalf("wait histogram n = %d", p.WaitHistogram().Count())
	}
}
