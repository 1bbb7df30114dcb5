package sim

import (
	"container/heap"
	"testing"
	"time"

	"dcm/internal/rng"
)

// --- Reference implementation: the container/heap event queue the engine
// used before the specialized 4-ary heap. The property tests drive both
// with the same schedule/cancel/fire sequences and demand identical pop
// order; BenchmarkReferenceHeapScheduleFire keeps the old cost measurable
// in-tree. ---

type refEvent struct {
	at        Time
	seq       uint64
	id        int
	cancelled bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// refEngine replays a schedule/cancel sequence on the reference queue and
// returns the ids in fire order.
type refEngine struct {
	q   refQueue
	seq uint64
}

func (r *refEngine) schedule(at Time, id int) *refEvent {
	ev := &refEvent{at: at, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.q, ev)
	return ev
}

func (r *refEngine) drain() []int {
	var order []int
	for len(r.q) > 0 {
		ev := heap.Pop(&r.q).(*refEvent)
		if ev.cancelled {
			continue
		}
		order = append(order, ev.id)
	}
	return order
}

// TestHeapMatchesReference is the heap property test: random
// schedule/cancel/fire sequences must produce the identical fire order on
// the specialized 4-ary heap and on the container/heap reference.
func TestHeapMatchesReference(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 200; trial++ {
		rnd := rng.New(uint64(trial) + 1)
		eng := NewEngine()
		ref := &refEngine{}

		n := 1 + rnd.Intn(300)
		timers := make([]Timer, 0, n)
		refs := make([]*refEvent, 0, n)
		var got []int
		for i := 0; i < n; i++ {
			// Clustered timestamps so equal-time ties are common.
			at := time.Duration(rnd.Intn(40)) * time.Second
			id := i
			timers = append(timers, eng.ScheduleAt(at, func() { got = append(got, id) }))
			refs = append(refs, ref.schedule(at, id))
		}
		// Cancel a random subset (possibly most of the queue, so lazy
		// compaction triggers inside the engine).
		for i := range timers {
			if rnd.Float64() < 0.4 {
				timers[i].Cancel()
				refs[i].cancelled = true
			}
		}
		if err := eng.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		want := ref.drain()
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: fire order diverges at %d: got %v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestHeapInterleavedRuns drives both implementations through interleaved
// schedule/run phases (events scheduling further events), checking the pop
// order also agrees when the queue never fully drains between phases.
func TestHeapInterleavedRuns(t *testing.T) {
	t.Parallel()
	rnd := rng.New(99)
	eng := NewEngine()
	ref := &refEngine{}
	var got, want []int

	id := 0
	for phase := 0; phase < 20; phase++ {
		for i := 0; i < 50; i++ {
			at := eng.Now() + time.Duration(rnd.Intn(10000))*time.Millisecond
			thisID := id
			id++
			eng.ScheduleAt(at, func() { got = append(got, thisID) })
			ref.schedule(at, thisID)
		}
		horizon := eng.Now() + time.Duration(1+rnd.Intn(5))*time.Second
		if err := eng.Run(horizon); err != nil {
			t.Fatal(err)
		}
		// Drain the reference up to the same horizon.
		for len(ref.q) > 0 && ref.q[0].at <= horizon {
			ev := heap.Pop(&ref.q).(*refEvent)
			if !ev.cancelled {
				want = append(want, ev.id)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, reference fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order diverges at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestFreeListReuse pins the recycling contract: a fired event's storage
// is reused by the next Schedule, and steady-state schedule/fire cycles
// allocate nothing.
func TestFreeListReuse(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	tm1 := e.Schedule(time.Second, func() {})
	first := tm1.ev
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	tm2 := e.Schedule(time.Second, func() {})
	if tm2.ev != first {
		t.Fatal("fired event storage was not recycled by the next Schedule")
	}
	if tm2.seq <= tm1.seq {
		t.Fatal("recycled event kept its seq; stale handles would stay live")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(time.Millisecond, sink)
		if err := e.Run(e.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocates %.1f objects per cycle", allocs)
	}
}

// sink is a package-level no-op so Schedule's argument is not a fresh
// closure allocation inside AllocsPerRun.
func sink() {}

// TestStaleTimerCannotTouchRecycledEvent is the safety property the
// handle's seq stamp exists for: canceling a Timer whose event already fired
// must not cancel the unrelated event now occupying the recycled storage.
func TestStaleTimerCannotTouchRecycledEvent(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	stale := e.Schedule(time.Second, func() {})
	if err := e.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	fired := false
	fresh := e.Schedule(time.Second, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("test setup: storage was not recycled")
	}
	stale.Cancel() // must be a no-op: generation advanced
	if stale.Pending() {
		t.Fatal("stale timer reports pending")
	}
	if !fresh.Pending() {
		t.Fatal("stale Cancel killed the recycled event")
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestCancelCurrentlyFiringEventIsNoop pins the Ticker stop-inside-callback
// pattern: the firing event is already released, so canceling its Timer
// from within its own callback must touch nothing.
func TestCancelCurrentlyFiringEventIsNoop(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var tm Timer
	ran := false
	other := false
	tm = e.Schedule(time.Second, func() {
		ran = true
		tm.Cancel() // self-cancel while firing
		// The free event is immediately reused by this Schedule; the stale
		// self-cancel above must not have marked it.
		e.Schedule(time.Second, func() { other = true })
	})
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !ran || !other {
		t.Fatalf("ran=%v other=%v, want both", ran, other)
	}
}

// freeListLen walks the engine's free list (test helper for the
// storage-reclamation assertions).
func freeListLen(e *Engine) int {
	n := 0
	for ev := e.free; ev != nil; ev = ev.next {
		n++
	}
	return n
}

// TestLazyCompaction checks the heap tier's dead-entry bookkeeping: mass
// cancellation past heapCompactionThreshold compacts the queue (Pending
// excludes dead entries throughout), ordering of the survivors is
// preserved, and canceled storage is reclaimed onto the free list
// immediately — not lazily at pop time. Heap-only keeps the canceled
// events in the structure under test; the wheel tier's twin is
// TestWheelCompaction.
func TestLazyCompaction(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	e.SetHeapOnly(true)
	const n = 1000
	timers := make([]Timer, 0, n)
	var got []int
	for i := 0; i < n; i++ {
		id := i
		timers = append(timers, e.Schedule(time.Duration(i)*time.Millisecond, func() { got = append(got, id) }))
	}
	if e.Pending() != n {
		t.Fatalf("Pending = %d, want %d", e.Pending(), n)
	}
	// Cancel everything except every 10th event: well past the
	// majority-dead threshold, so compaction must have run.
	freeBefore := freeListLen(e)
	for i := range timers {
		if i%10 != 0 {
			timers[i].Cancel()
		}
	}
	if e.Pending() != n/10 {
		t.Fatalf("Pending after mass cancel = %d, want %d", e.Pending(), n/10)
	}
	if len(e.queue) >= n/2 {
		t.Fatalf("queue holds %d entries after mass cancel; compaction did not run", len(e.queue))
	}
	// Compaction ran at least once, so only a sub-threshold tail of
	// cancels may still sit in the queue lazily...
	if e.dead >= heapCompactionThreshold {
		t.Fatalf("dead count %d after mass cancel, want < %d", e.dead, heapCompactionThreshold)
	}
	// ...and every other canceled event's storage must be back on the
	// free list, not stranded until its fire time passes.
	if got, want := freeListLen(e), freeBefore+(n-n/10)-e.dead; got != want {
		t.Fatalf("free list holds %d events after mass cancel, want %d (compaction did not reclaim)", got, want)
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(got) != n/10 {
		t.Fatalf("fired %d events, want %d", len(got), n/10)
	}
	for i, id := range got {
		if id != i*10 {
			t.Fatalf("fire order corrupted by compaction: got[%d] = %d, want %d", i, id, i*10)
		}
	}
}

// TestCompactionBelowThresholdIsLazy pins the other edge: a queue with
// fewer than heapCompactionThreshold dead entries never compacts eagerly
// — canceled events are simply skipped at pop time.
func TestCompactionBelowThresholdIsLazy(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	e.SetHeapOnly(true)
	const n = heapCompactionThreshold - 2
	timers := make([]Timer, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, e.Schedule(time.Duration(i)*time.Millisecond, func() {}))
	}
	for i := range timers {
		timers[i].Cancel()
	}
	if len(e.queue) != n {
		t.Fatalf("small queue compacted eagerly: %d entries left of %d", len(e.queue), n)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(e.queue) != 0 {
		t.Fatalf("queue not drained: %d entries", len(e.queue))
	}
}

// TestScheduleAtTieOrder checks ScheduleAt against the reference heap
// under heavy ties: schedule order is the tie-break at equal times, and a
// nil callback is never queued.
func TestScheduleAtTieOrder(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	ref := &refEngine{}
	var got []int
	for i := 0; i < 310; i++ {
		id := i
		at := time.Duration(i%7) * time.Second
		e.ScheduleAt(at, func() { got = append(got, id) })
		ref.schedule(at, id)
	}
	if tm := e.ScheduleAt(time.Second, nil); tm != (Timer{}) {
		t.Fatalf("nil callback returned a live timer %+v", tm)
	}
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	want := ref.drain()
	if len(got) != len(want) {
		t.Fatalf("fired %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order diverges at %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestScheduleAtClampsPast checks a past timestamp is clamped to now and
// fires after the events already due at now.
func TestScheduleAtClampsPast(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var order []string
	var at Time
	e.Schedule(10*time.Second, func() {
		e.ScheduleAt(time.Second, func() { at = e.Now(); order = append(order, "past") })
	})
	e.Schedule(10*time.Second, func() { order = append(order, "due") })
	if err := e.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if at != 10*time.Second {
		t.Fatalf("past event fired at %v, want 10s", at)
	}
	if len(order) != 2 || order[0] != "due" || order[1] != "past" {
		t.Fatalf("fire order = %v, want [due past]", order)
	}
}

// BenchmarkReferenceHeapScheduleFire is the same workload as
// BenchmarkEngineScheduleFire run on the container/heap reference — the
// in-tree baseline the specialized heap is measured against.
func BenchmarkReferenceHeapScheduleFire(b *testing.B) {
	const population = 512
	ref := &refEngine{}
	lcg := uint64(0x9E3779B97F4A7C15)
	nextDelay := func() time.Duration {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return time.Duration(lcg%1000) * time.Microsecond
	}
	now := Time(0)
	for i := 0; i < population; i++ {
		ref.schedule(now+nextDelay(), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := heap.Pop(&ref.q).(*refEvent)
		now = ev.at
		ref.schedule(now+nextDelay(), ev.id)
	}
}
