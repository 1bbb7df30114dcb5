package sim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Second, func() { order = append(order, 3) })
	e.Schedule(1*time.Second, func() { order = append(order, 1) })
	e.Schedule(2*time.Second, func() { order = append(order, 2) })
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { order = append(order, i) })
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of schedule order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var at Time
	e.Schedule(1500*time.Millisecond, func() { at = e.Now() })
	if err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if at != 1500*time.Millisecond {
		t.Fatalf("event saw clock %v, want 1.5s", at)
	}
	if e.Now() != time.Hour {
		t.Fatalf("clock after drain = %v, want horizon", e.Now())
	}
}

func TestHorizonLeavesFutureEvents(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	fired := false
	e.Schedule(10*time.Second, func() { fired = true })
	if err := e.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event past horizon fired")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if err := e.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event did not fire on second Run")
	}
}

func TestNegativeDelayFiresNow(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var at Time
	e.Schedule(time.Second, func() {
		e.Schedule(-time.Minute, func() { at = e.Now() })
	})
	if err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if at != time.Second {
		t.Fatalf("negative-delay event fired at %v, want 1s", at)
	}
}

func TestCancel(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("Pending() = false before Cancel")
	}
	tm.Cancel()
	if tm.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelZeroTimerSafe(t *testing.T) {
	t.Parallel()
	var tm Timer
	tm.Cancel() // must not panic
	if tm.Pending() {
		t.Fatal("zero Timer reports pending")
	}
}

func TestScheduleNilFn(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	if tm := e.Schedule(time.Second, nil); tm.Pending() {
		t.Fatal("Schedule(nil) returned a pending timer")
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleAt(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var at Time
	e.ScheduleAt(7*time.Second, func() { at = e.Now() })
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if at != 7*time.Second {
		t.Fatalf("ScheduleAt fired at %v", at)
	}
}

func TestStop(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	count := 0
	e.Schedule(time.Second, func() { count++; e.Stop() })
	e.Schedule(2*time.Second, func() { count++ })
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("Stop did not halt the loop: count=%d", count)
	}
	if e.Now() != time.Second {
		t.Fatalf("clock advanced past Stop point: %v", e.Now())
	}
}

func TestEventLimit(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	e.SetEventLimit(100)
	var loop func()
	loop = func() { e.Schedule(0, loop) }
	e.Schedule(0, loop)
	err := e.Run(time.Second)
	if !errors.Is(err, ErrEventLimit) {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
}

func TestSetEventLimitZeroRestoresDefault(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	e.SetEventLimit(1)
	e.SetEventLimit(0)
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestTicker(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var times []Time
	stop := e.Ticker(time.Second, func() { times = append(times, e.Now()) })
	e.Schedule(3500*time.Millisecond, stop)
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("ticker fired %d times, want 3: %v", len(times), times)
	}
	for i, at := range times {
		if want := time.Duration(i+1) * time.Second; at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	count := 0
	var stop func()
	stop = e.Ticker(time.Second, func() {
		count++
		if count == 2 {
			stop()
		}
	})
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("ticker fired %d times after self-stop, want 2", count)
	}
}

func TestTickerNonPositivePeriod(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	stop := e.Ticker(0, func() { t.Fatal("ticker with period 0 fired") })
	stop()
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestProcessedCount(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	for i := 1; i <= 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {})
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if e.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", e.Processed())
	}
}

// TestMonotonicClockProperty checks the core engine invariant: the clock
// never moves backwards no matter how events are scheduled.
func TestMonotonicClockProperty(t *testing.T) {
	t.Parallel()
	prop := func(delays []int16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			delay := time.Duration(d) * time.Millisecond // may be negative
			e.Schedule(delay, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		if err := e.Run(time.Hour); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNestedScheduling exercises events scheduling further events, the
// pattern every simulated server uses.
func TestNestedScheduling(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.Schedule(time.Millisecond, recurse)
		}
	}
	e.Schedule(0, recurse)
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != time.Second {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestTickerStopInsideCallbackThenRestart(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	// Pin the semantics the chaos repair events rely on: stopping a
	// ticker from inside its own callback suppresses the already-armed
	// next firing immediately (no trailing tick), double-stop is a no-op,
	// and a replacement ticker started from the same callback runs on its
	// own schedule, unaffected by the old one's stop.
	first, second := 0, 0
	var stop func()
	stop = e.Ticker(time.Second, func() {
		first++
		stop()
		stop()
		e.Ticker(time.Second, func() { second++ })
	})
	if err := e.Run(3500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("stopped ticker fired %d times, want 1", first)
	}
	// The replacement started at t=1s fires at 2s and 3s.
	if second != 2 {
		t.Fatalf("replacement ticker fired %d times, want 2", second)
	}
}
