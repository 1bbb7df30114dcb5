package connpool

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"dcm/internal/sim"
)

func newPool(t *testing.T, size int) (*sim.Engine, *Pool) {
	t.Helper()
	eng := sim.NewEngine()
	p, err := New(eng, "tc1-db", size)
	if err != nil {
		t.Fatal(err)
	}
	return eng, p
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	if _, err := New(eng, "p", 0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("err = %v", err)
	}
	if _, err := New(nil, "p", 1); err == nil {
		t.Fatal("nil engine accepted")
	}
}

func TestAcquireImmediate(t *testing.T) {
	t.Parallel()
	_, p := newPool(t, 2)
	got := 0
	p.Acquire(func(c *Conn) { got++; c.Release() })
	p.Acquire(func(c *Conn) { got++; c.Release() })
	if got != 2 {
		t.Fatalf("granted = %d", got)
	}
	if p.InUse() != 0 {
		t.Fatalf("in use after release = %d", p.InUse())
	}
}

func TestAcquireBlocksAtCapacity(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 1)
	var held *Conn
	p.Acquire(func(c *Conn) { held = c })
	granted := false
	p.Acquire(func(c *Conn) { granted = true; c.Release() })
	if granted {
		t.Fatal("second acquire granted beyond capacity")
	}
	if p.Waiting() != 1 {
		t.Fatalf("waiting = %d", p.Waiting())
	}
	eng.Schedule(time.Second, func() { held.Release() })
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatal("waiter never granted")
	}
}

func TestFIFOOrder(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 1)
	var order []int
	var first *Conn
	p.Acquire(func(c *Conn) { first = c })
	for i := 0; i < 3; i++ {
		i := i
		p.Acquire(func(c *Conn) {
			order = append(order, i)
			c.Release()
		})
	}
	eng.Schedule(time.Second, func() { first.Release() })
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order = %v", order)
		}
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	t.Parallel()
	_, p := newPool(t, 1)
	var conn *Conn
	p.Acquire(func(c *Conn) { conn = c })
	conn.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	conn.Release()
}

func TestAcquireNilIgnored(t *testing.T) {
	t.Parallel()
	_, p := newPool(t, 1)
	p.Acquire(nil)
	if p.InUse() != 0 || p.Waiting() != 0 {
		t.Fatal("nil acquire changed state")
	}
}

func TestResizeGrowAdmitsWaiters(t *testing.T) {
	t.Parallel()
	_, p := newPool(t, 1)
	granted := 0
	for i := 0; i < 3; i++ {
		p.Acquire(func(c *Conn) { granted++ })
	}
	if granted != 1 {
		t.Fatalf("granted = %d before grow", granted)
	}
	p.Resize(3)
	if granted != 3 {
		t.Fatalf("granted = %d after grow", granted)
	}
	if p.Size() != 3 {
		t.Fatalf("size = %d", p.Size())
	}
}

func TestResizeShrinkGraceful(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 3)
	var conns []*Conn
	for i := 0; i < 3; i++ {
		p.Acquire(func(c *Conn) { conns = append(conns, c) })
	}
	p.Resize(1)
	if p.InUse() != 3 {
		t.Fatal("shrink revoked held connections")
	}
	granted := false
	p.Acquire(func(c *Conn) {
		granted = true
		if p.InUse() > 1 {
			t.Errorf("granted with InUse = %d after shrink to 1", p.InUse())
		}
	})
	for i, c := range conns {
		c := c
		eng.Schedule(time.Duration(i+1)*time.Second, c.Release)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !granted {
		t.Fatal("waiter never granted after drain")
	}
}

func TestResizeClampsToOne(t *testing.T) {
	t.Parallel()
	_, p := newPool(t, 2)
	p.Resize(-1)
	if p.Size() != 1 {
		t.Fatalf("size = %d", p.Size())
	}
}

func TestSample(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 1)
	var first *Conn
	p.Acquire(func(c *Conn) { first = c })
	p.Acquire(func(c *Conn) { c.Release() }) // waits 2s
	eng.Schedule(2*time.Second, func() { first.Release() })
	if err := eng.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := p.TakeSample()
	if s.Grants != 2 {
		t.Fatalf("grants = %d", s.Grants)
	}
	// Held for 2s of the 4s interval → mean 0.5.
	if s.MeanHeld < 0.45 || s.MeanHeld > 0.55 {
		t.Fatalf("mean held = %v", s.MeanHeld)
	}
	s2 := p.TakeSample()
	if s2.Grants != 0 {
		t.Fatalf("second interval grants = %d", s2.Grants)
	}
}

// TestInUseNeverExceedsSizeOnAdmission drives random acquire/release/resize
// sequences; grants must only happen while InUse <= Size.
func TestInUseNeverExceedsSizeOnAdmission(t *testing.T) {
	t.Parallel()
	prop := func(ops []uint8) bool {
		eng := sim.NewEngine()
		p, err := New(eng, "p", 2)
		if err != nil {
			return false
		}
		ok := true
		var held []*Conn
		at := time.Duration(0)
		for _, op := range ops {
			at += time.Millisecond
			op := op
			eng.ScheduleAt(at, func() {
				switch op % 3 {
				case 0:
					p.Acquire(func(c *Conn) {
						if p.InUse() > p.Size() {
							ok = false
						}
						held = append(held, c)
					})
				case 1:
					if len(held) > 0 {
						held[0].Release()
						held = held[1:]
					}
				case 2:
					p.Resize(int(op%5) + 1)
				}
			})
		}
		if err := eng.Run(time.Hour); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLeakConsumesCapacity(t *testing.T) {
	t.Parallel()
	_, p := newPool(t, 3)
	p.Leak(2)
	if p.Leaked() != 2 || p.InUse() != 0 || p.Free() != 1 {
		t.Fatalf("leaked = %d, inUse = %d, free = %d", p.Leaked(), p.InUse(), p.Free())
	}
	granted := 0
	var held *Conn
	p.Acquire(func(c *Conn) { granted++; held = c }) // takes the one free slot
	p.Acquire(func(c *Conn) { granted++; c.Release() })
	if granted != 1 {
		t.Fatalf("granted = %d with 2 of 3 connections leaked", granted)
	}
	if p.Waiting() != 1 {
		t.Fatalf("waiting = %d", p.Waiting())
	}
	// Repair: the waiter is admitted as capacity returns.
	p.Unleak(2)
	if granted != 2 {
		t.Fatalf("granted = %d after repair", granted)
	}
	held.Release()
	if p.Leaked() != 0 || p.InUse() != 0 {
		t.Fatalf("after repair: leaked = %d, inUse = %d", p.Leaked(), p.InUse())
	}
}

func TestUnleakClampsToLeaked(t *testing.T) {
	t.Parallel()
	_, p := newPool(t, 4)
	p.Leak(1)
	p.Unleak(10) // only 1 was leaked
	if p.Leaked() != 0 || p.InUse() != 0 {
		t.Fatalf("leaked = %d, inUse = %d", p.Leaked(), p.InUse())
	}
	p.Unleak(1) // nothing leaked: no-op
	if p.InUse() != 0 {
		t.Fatalf("inUse went negative: %d", p.InUse())
	}
}

func TestSampleReportsLeaked(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 4)
	p.Leak(3)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	s := p.TakeSample()
	if s.Leaked != 3 {
		t.Fatalf("Sample.Leaked = %d", s.Leaked)
	}
}
