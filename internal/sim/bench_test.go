package sim

import (
	"testing"
	"time"
)

// benchScheduleFire is the event-core hot-path workload: a standing
// population of self-rescheduling events with pseudo-random delays, so
// every op is one fire plus one schedule. This is the access pattern of a
// busy simulation — thousands of in-flight timers, each firing and
// rearming. Delays are uniform over spread in whole microseconds.
// heapOnly pins the engine to the pre-wheel baseline so the wheel's gain
// is measured against it (see BENCH_engine.baseline.json).
func benchScheduleFire(b *testing.B, population int, spread time.Duration, heapOnly bool) {
	eng := NewEngine()
	eng.SetHeapOnly(heapOnly)
	eng.SetEventLimit(uint64(b.N) + uint64(population) + 10)
	fired := 0
	// Deterministic LCG so delays (and thus timer-store shape) are
	// reproducible.
	lcg := uint64(0x9E3779B97F4A7C15)
	nextDelay := func() time.Duration {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return time.Duration(lcg%uint64(spread/time.Microsecond)) * time.Microsecond
	}
	var rearm func()
	rearm = func() {
		fired++
		if fired < b.N {
			eng.Schedule(nextDelay(), rearm)
		}
	}
	for i := 0; i < population; i++ {
		eng.Schedule(nextDelay(), rearm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.Run(time.Duration(b.N+population) * time.Millisecond); err != nil {
		b.Fatal(err)
	}
	if fired < b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkEngineScheduleFire is the headline event-core benchmark
// (wheel-backed, 512-event population).
func BenchmarkEngineScheduleFire(b *testing.B) {
	benchScheduleFire(b, 512, time.Millisecond, false)
}

// BenchmarkEngineScheduleFireHeapOnly is the same workload pinned to the
// 4-ary heap — the pre-wheel engine — for direct comparison.
func BenchmarkEngineScheduleFireHeapOnly(b *testing.B) {
	benchScheduleFire(b, 512, time.Millisecond, true)
}

// BenchmarkEngineScheduleFireStanding1M is the same workload at the
// million-user smoke's scale: 10⁶ standing events spread over 1 s, so the
// timer store is far larger than the CPU caches and each cascade step is
// a cache miss. It must stay allocation-free.
func BenchmarkEngineScheduleFireStanding1M(b *testing.B) {
	benchScheduleFire(b, 1_000_000, time.Second, false)
}

// benchScheduleFireMixed is the timer-heavy mix the wheel is built for: a
// large standing population of short rearming delays (service times,
// think times) plus a sparse ring of long deadlines that are almost
// always canceled before firing (watchdogs, retry deadlines). Every op is
// one fire, two schedules and one cancel.
func benchScheduleFireMixed(b *testing.B, heapOnly bool) {
	const (
		population = 4096
		watchdogs  = 256
	)
	eng := NewEngine()
	eng.SetHeapOnly(heapOnly)
	eng.SetEventLimit(uint64(b.N)*2 + population + watchdogs + 10)
	fired := 0
	lcg := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg
	}
	var ring [watchdogs]Timer
	wi := 0
	nop := func() {}
	var rearm func()
	rearm = func() {
		fired++
		if fired >= b.N {
			return
		}
		// Dominant short delay: 1 µs – 1 ms, level-0 wheel territory.
		eng.Schedule(time.Duration(1+next()%1000)*time.Microsecond, rearm)
		// Sparse long deadline: 1 – 10 s, parked in a higher wheel level
		// and canceled ~256 fires (≈ 0.1 s) later, long before it's due.
		wi = (wi + 1) % watchdogs
		ring[wi].Cancel()
		ring[wi] = eng.Schedule(time.Duration(1+next()%10)*time.Second, nop)
	}
	for i := 0; i < population; i++ {
		eng.Schedule(time.Duration(1+next()%1000)*time.Microsecond, rearm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.Run(time.Duration(b.N+population)*time.Millisecond + 20*time.Second); err != nil {
		b.Fatal(err)
	}
	if fired < b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// BenchmarkEngineScheduleFireMixed is the wheel-backed timer-heavy mix.
func BenchmarkEngineScheduleFireMixed(b *testing.B) {
	benchScheduleFireMixed(b, false)
}

// BenchmarkEngineScheduleFireMixedHeapOnly pins the same mix to the heap:
// the long deadlines sit in the heap's upper levels and every push/pop
// sifts past them, which is exactly the cost the wheel removes.
func BenchmarkEngineScheduleFireMixedHeapOnly(b *testing.B) {
	benchScheduleFireMixed(b, true)
}

// BenchmarkEngineScheduleCancel measures the cancel-heavy pattern: half of
// all scheduled events are canceled before they fire (the watchdog/repair
// pattern chaos runs produce), stressing lazy removal of dead entries.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	const population = 512
	eng := NewEngine()
	eng.SetEventLimit(uint64(b.N) + population + 10)
	fired := 0
	lcg := uint64(12345)
	nextDelay := func() time.Duration {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return time.Duration(lcg%1000) * time.Microsecond
	}
	var rearm func()
	rearm = func() {
		fired++
		if fired < b.N {
			// Rearm one live event and schedule-then-cancel a decoy.
			eng.Schedule(nextDelay(), rearm)
			decoy := eng.Schedule(nextDelay(), func() {})
			decoy.Cancel()
		}
	}
	for i := 0; i < population; i++ {
		eng.Schedule(nextDelay(), rearm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := eng.Run(time.Duration(b.N+population) * time.Millisecond); err != nil {
		b.Fatal(err)
	}
	if fired < b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}
