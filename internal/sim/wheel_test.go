package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// --- container/heap reference model -------------------------------------
//
// The differential tests drive the wheel-backed engine and this textbook
// priority queue through identical randomized workloads and demand
// identical firing orders. The model is deliberately naive — stdlib
// container/heap over (at, seq) with eager state — so it shares no code
// (and therefore no bugs) with the engine's two-tier store.

type diffEvent struct {
	at        Time
	id        int
	index     int
	fired     bool
	cancelled bool
}

type diffQueue []*diffEvent

func (q diffQueue) Len() int { return len(q) }
func (q diffQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].id < q[j].id
}
func (q diffQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *diffQueue) Push(x interface{}) {
	it := x.(*diffEvent)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *diffQueue) Pop() interface{} {
	old := *q
	n := len(old) - 1
	it := old[n]
	old[n] = nil
	*q = old[:n]
	return it
}

type diffModel struct {
	q     diffQueue
	items map[int]*diffEvent
	now   Time
	live  int
}

func newDiffModel() *diffModel {
	return &diffModel{items: make(map[int]*diffEvent)}
}

func (m *diffModel) schedule(id int, at Time) {
	if at < m.now {
		at = m.now
	}
	it := &diffEvent{at: at, id: id}
	m.items[id] = it
	heap.Push(&m.q, it)
	m.live++
}

func (m *diffModel) cancel(id int) {
	if it, ok := m.items[id]; ok && !it.fired && !it.cancelled {
		it.cancelled = true
		m.live--
	}
}

// run pops every event due by horizon in (at, id) order, invoking fire
// for live ones (fire may schedule more — the rearm pattern).
func (m *diffModel) run(horizon Time, fire func(id int)) {
	for m.q.Len() > 0 && m.q[0].at <= horizon {
		it := heap.Pop(&m.q).(*diffEvent)
		if it.cancelled {
			continue
		}
		m.now = it.at
		it.fired = true
		m.live--
		fire(it.id)
	}
	if m.now < horizon {
		m.now = horizon
	}
}

// randSpanDelay draws delays spread across every wheel tier — the
// current tick, each level's span, and past the wheel's total horizon —
// so placement, cascades and the overflow-to-heap path are all
// exercised. Spans are derived from the wheel constants so the
// distribution tracks the tick size.
func randSpanDelay(r *rand.Rand) time.Duration {
	span := func(lvl int) int64 {
		return 1 << (wheelTickShift + lvl*wheelLevelBits)
	}
	switch r.Intn(12) {
	case 0:
		return 0
	case 1: // sub-tick: lands in the heap (current tick already flushed)
		return time.Duration(r.Int63n(span(0)))
	case 2, 3, 4, 5: // level 0 span
		return time.Duration(r.Int63n(span(1)))
	case 6, 7: // level 1 span
		return time.Duration(r.Int63n(span(2)))
	case 8: // level 2 span
		return time.Duration(r.Int63n(span(3)))
	case 9, 10: // level 3 span
		return time.Duration(r.Int63n(span(4)))
	default: // beyond the wheel horizon: must overflow to the heap
		return time.Duration(span(4)) + time.Duration(r.Int63n(span(3)))
	}
}

// rearmDelay derives a deterministic per-id delay so engine and model
// rearms are reproducible without sharing a random stream.
func rearmDelay(id int) time.Duration {
	return time.Duration(uint64(id) * 0x9E3779B97F4A7C15 % uint64(4*time.Second))
}

func shouldRearm(id int) bool { return id%3 == 0 }

// TestWheelDifferentialRandom is the main property test: a randomized
// schedule/cancel/rearm workload driven simultaneously through the
// wheel-backed engine and the container/heap reference, advancing the
// clock in jumps from sub-millisecond to multi-day so level cascades,
// slot boundaries and the overflow tier are all crossed. Firing order,
// clock, and pending counts must match exactly at every step, and the
// engine must verify structurally clean throughout.
func TestWheelDifferentialRandom(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runDifferential(t, seed)
		})
	}
}

func runDifferential(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	eng := NewEngine()
	eng.SetViolationHook(func(rule, detail string) {
		t.Errorf("engine violation %s: %s", rule, detail)
	})
	model := newDiffModel()

	var (
		got, want []int
		engTimers = make(map[int]Timer)
		engNext   int
		refNext   int
	)
	// Engine-side scheduler: records the firing order and replays the
	// deterministic rearm rule. Ids are allocated in fire order, so they
	// stay aligned with the model's exactly as long as orders match —
	// which is the property under test.
	var scheduleEng func(id int, delay time.Duration)
	scheduleEng = func(id int, delay time.Duration) {
		engTimers[id] = eng.Schedule(delay, func() {
			got = append(got, id)
			if shouldRearm(id) {
				nid := engNext
				engNext++
				scheduleEng(nid, rearmDelay(nid))
			}
		})
	}
	var fireRef func(id int)
	fireRef = func(id int) {
		want = append(want, id)
		if shouldRearm(id) {
			nid := refNext
			refNext++
			model.schedule(nid, model.now+rearmDelay(nid))
		}
	}

	horizon := Time(0)
	var lastDelay time.Duration
	for seg := 0; seg < 25; seg++ {
		if engNext != refNext {
			t.Fatalf("segment %d: id counters diverged (engine %d, model %d)", seg, engNext, refNext)
		}
		nops := 40 + r.Intn(120)
		for i := 0; i < nops; i++ {
			if r.Intn(4) == 0 && engNext > 0 {
				// Cancel a random id; already-fired ids make this a no-op
				// in both systems (the engine via its generation stamp).
				id := r.Intn(engNext)
				engTimers[id].Cancel()
				model.cancel(id)
				continue
			}
			d := randSpanDelay(r)
			if r.Intn(6) == 0 {
				d = lastDelay // duplicate timestamp: pins same-time ordering
			}
			lastDelay = d
			id := engNext
			engNext++
			refNext++
			scheduleEng(id, d)
			model.schedule(id, model.now+d)
		}

		switch r.Intn(6) {
		case 0:
			horizon += time.Duration(r.Int63n(int64(time.Millisecond)))
		case 1, 2:
			horizon += time.Duration(r.Int63n(int64(100 * time.Millisecond)))
		case 3:
			horizon += time.Duration(r.Int63n(int64(10 * time.Second)))
		case 4:
			horizon += time.Duration(r.Int63n(int64(time.Hour)))
		default:
			horizon += time.Duration(r.Int63n(int64(100 * time.Hour)))
		}
		if err := eng.Run(horizon); err != nil {
			t.Fatalf("segment %d: %v", seg, err)
		}
		model.run(horizon, fireRef)

		if len(got) != len(want) {
			t.Fatalf("segment %d: engine fired %d events, reference %d", seg, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("segment %d: firing order diverges at %d: engine id %d, reference id %d",
					seg, i, got[i], want[i])
			}
		}
		if eng.Now() != model.now {
			t.Fatalf("segment %d: clock %v, reference %v", seg, eng.Now(), model.now)
		}
		if eng.Pending() != model.live {
			t.Fatalf("segment %d: pending %d, reference %d", seg, eng.Pending(), model.live)
		}
		if err := eng.VerifyHeap(); err != nil {
			t.Fatalf("segment %d: %v", seg, err)
		}
	}

	// Drain everything, including far-future overflow events.
	if err := eng.Run(1 << 62); err != nil {
		t.Fatal(err)
	}
	model.run(1<<62, fireRef)
	if len(got) != len(want) {
		t.Fatalf("drain: engine fired %d events, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("drain: firing order diverges at %d: engine id %d, reference id %d", i, got[i], want[i])
		}
	}
	if eng.Pending() != 0 {
		t.Fatalf("drain: %d events still pending", eng.Pending())
	}
	if err := eng.VerifyHeap(); err != nil {
		t.Fatal(err)
	}
}

// TestWheelHeapEquivalenceBoundaries drives one deterministic workload —
// events pinned exactly at slot and block boundaries of every wheel
// level, plus same-timestamp runs — through a wheel-backed and a
// heap-only engine, advancing in stages that stop exactly on boundary
// ticks. The firing sequences must be byte-for-byte identical: this is
// the determinism contract that keeps every digest test stable. The
// boundaries derive from the wheel's geometry, so the test follows any
// level count or level width.
func TestWheelHeapEquivalenceBoundaries(t *testing.T) {
	t.Parallel()
	// Level lvl's span starts at tick 1<<(lvl*wheelLevelBits); past the
	// top level that is wheelMaxTick, the horizon where events overflow
	// to the heap. Each edge is bracketed, its second block is marked,
	// and the run stops once on every edge.
	boundaryTicks := []uint64{0, 1, 2}
	var stops []uint64
	for lvl := 1; lvl <= wheelLevels; lvl++ {
		edge := uint64(1) << (lvl * wheelLevelBits)
		boundaryTicks = append(boundaryTicks, edge-1, edge, edge+1, 2*edge-1, 2*edge)
		stops = append(stops, edge)
	}
	if last := stops[len(stops)-1]; last != wheelMaxTick {
		t.Fatalf("top edge %d, want wheelMaxTick %d", last, uint64(wheelMaxTick))
	}
	build := func(e *Engine) []int {
		var fired []int
		id := 0
		add := func(at Time) {
			myID := id
			id++
			e.ScheduleAt(at, func() { fired = append(fired, myID) })
		}
		for _, ti := range boundaryTicks {
			base := Time(ti << wheelTickShift)
			add(base)
			add(base) // same timestamp: schedule order must win
			add(base + 1)
			add(base + Time(1<<wheelTickShift) - 1) // last ns of the tick
		}
		// Advance in stages that stop exactly on boundaries, forcing
		// cascades mid-workload rather than in one final sweep.
		for _, ti := range stops {
			if err := e.Run(Time(ti << wheelTickShift)); err != nil {
				t.Fatal(err)
			}
			// Schedule more events mid-run so placement happens against a
			// moved frontier, not just from tick zero.
			add(e.Now() + time.Millisecond)
			add(e.Now() + 5*time.Second)
		}
		if err := e.Run(1 << 62); err != nil {
			t.Fatal(err)
		}
		if err := e.VerifyHeap(); err != nil {
			t.Fatal(err)
		}
		return fired
	}

	wheelFired := build(NewEngine())
	heapEng := NewEngine()
	heapEng.SetHeapOnly(true)
	heapFired := build(heapEng)

	if len(wheelFired) != len(heapFired) {
		t.Fatalf("wheel fired %d events, heap-only %d", len(wheelFired), len(heapFired))
	}
	for i := range wheelFired {
		if wheelFired[i] != heapFired[i] {
			t.Fatalf("firing order diverges at %d: wheel id %d, heap-only id %d",
				i, wheelFired[i], heapFired[i])
		}
	}
}

// TestWheelCompaction is the wheel twin of TestLazyCompaction: a mass
// cancel of events parked across wheel levels must trigger the
// majority-dead sweep, shrink the stored population, and reclaim the
// canceled events' storage onto the free list.
func TestWheelCompaction(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	const n = 1000
	fired := 0
	timers := make([]Timer, n)
	for i := range timers {
		// 1 ms spacing spreads the population across multiple wheel
		// levels, so compaction sweeps more than one level.
		timers[i] = e.Schedule(time.Duration(i+1)*time.Millisecond, func() { fired++ })
	}
	if e.wh.count != n {
		t.Fatalf("wheel holds %d events, want %d", e.wh.count, n)
	}
	freeBefore := freeListLen(e)
	cancelled := 0
	for i, tm := range timers {
		if i%10 != 0 {
			tm.Cancel()
			cancelled++
		}
	}
	// Compaction runs during the cancel loop each time the dead majority
	// crosses the threshold; only a sub-threshold residue may stay lazy.
	if e.wh.dead >= wheelCompactionThreshold {
		t.Fatalf("wheel dead count %d after mass cancel, want < %d", e.wh.dead, wheelCompactionThreshold)
	}
	if want := n - cancelled + e.wh.dead; e.wh.count != want {
		t.Fatalf("wheel count %d after compaction, want %d", e.wh.count, want)
	}
	if got, want := freeListLen(e), freeBefore+cancelled-e.wh.dead; got != want {
		t.Fatalf("free list has %d events, want %d reclaimed", got, want)
	}
	if err := e.VerifyHeap(); err != nil {
		t.Fatal(err)
	}
	// The survivors must be untouched by compaction: still pending, and
	// all of them fire on drain.
	survivors := 0
	for i := range timers {
		if i%10 == 0 {
			survivors++
			if !timers[i].Pending() {
				t.Fatalf("survivor %d no longer pending after compaction", i)
			}
		}
	}
	if err := e.Run(time.Duration(n+1) * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired != survivors {
		t.Fatalf("%d events fired after drain, want %d survivors", fired, survivors)
	}
	if err := e.VerifyHeap(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyWheelDetectsCorruption corrupts wheel-tier internals one axis
// at a time and asserts VerifyHeap names each breakage, mirroring
// TestVerifyHeapDetectsCorruption for the heap tier.
func TestVerifyWheelDetectsCorruption(t *testing.T) {
	t.Parallel()
	load := func() *Engine {
		e := NewEngine()
		for i := 0; i < 10; i++ {
			e.Schedule(time.Duration(i+1)*time.Millisecond, func() {})
			e.Schedule(time.Duration(i+1)*time.Second, func() {})
		}
		return e
	}
	// firstSlot returns some occupied slot's coordinates.
	firstSlot := func(e *Engine) (int, uint64) {
		for lvl := 0; lvl < wheelLevels; lvl++ {
			for s := uint64(0); s < wheelSlots; s++ {
				if e.wh.slots[lvl][s] != nil {
					return lvl, s
				}
			}
		}
		panic("no occupied slot in loaded engine")
	}
	cases := []struct {
		name    string
		corrupt func(e *Engine)
		want    string
	}{
		{"dead-count-out-of-range", func(e *Engine) { e.wh.dead = e.wh.count + 1 }, "wheel dead count"},
		{"occupancy-bit-cleared", func(e *Engine) {
			lvl, s := firstSlot(e)
			e.wh.occ[lvl][s>>6] &^= 1 << (s & 63)
		}, "occupancy bit"},
		{"inwheel-flag-cleared", func(e *Engine) {
			lvl, s := firstSlot(e)
			e.wh.slots[lvl][s].inWheel = false
		}, "not marked inWheel"},
		{"dead-miscount", func(e *Engine) {
			lvl, s := firstSlot(e)
			e.wh.slots[lvl][s].cancelled = true
		}, "dead count is"},
		{"event-behind-frontier", func(e *Engine) {
			e.wh.cur += wheelMaxTick // frontier teleports past everything
		}, "behind frontier"},
		{"next-bound-violated", func(e *Engine) {
			lvl, s := firstSlot(e)
			e.wh.next = tickOf(e.wh.slots[lvl][s].at) + 1
		}, "below next-tick bound"},
		{"misplaced-event", func(e *Engine) {
			lvl, s := firstSlot(e)
			ev := e.wh.take(lvl, s)
			rest := ev.next
			ev.next = nil
			// Relink the head into a guaranteed-wrong slot of the same level.
			wrong := (s + 7) & wheelSlotMask
			ev.next = e.wh.slots[lvl][wrong]
			e.wh.slots[lvl][wrong] = ev
			e.wh.occ[lvl][wrong>>6] |= 1 << (wrong & 63)
			if rest != nil {
				e.wh.slots[lvl][s] = rest
				e.wh.occ[lvl][s>>6] |= 1 << (s & 63)
			}
		}, "placed at level"},
		{"count-mismatch", func(e *Engine) { e.wh.count++ }, "count is"},
		{"wheel-event-on-free-list", func(e *Engine) {
			lvl, s := firstSlot(e)
			ev := e.wh.slots[lvl][s]
			ev.next = e.free
			e.free = ev
		}, "also on the free list"},
		{"queue-event-marked-inwheel", func(e *Engine) {
			// An overflow event lives in the heap; flagging it inWheel is a
			// cross-tier inconsistency.
			e.Schedule(Time(wheelMaxTick<<wheelTickShift)+time.Hour, func() {})
			e.queue[0].ev.inWheel = true
		}, "marked inWheel"},
		{"event-in-both-tiers", func(e *Engine) {
			lvl, s := firstSlot(e)
			ev := e.wh.slots[lvl][s]
			e.push(heapEntry{at: ev.at, seq: ev.seq, ev: ev})
		}, "also in the wheel"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			e := load()
			tc.corrupt(e)
			err := e.VerifyHeap()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestWheelArenaSteadyState pins the zero-allocation contract: once the
// event population peaks, an arbitrarily long rearm workload reuses
// arena storage instead of allocating. A broken arena would malloc once
// per event (tens of thousands here); the threshold only tolerates
// runtime background noise and residual heap-slice growth.
func TestWheelArenaSteadyState(t *testing.T) {
	e := NewEngine()
	var rearm func()
	n := 0
	rearm = func() {
		n++
		if n < 50_000 {
			e.Schedule(time.Duration(1+n%977)*time.Microsecond, rearm)
		}
	}
	for i := 0; i < 256; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, rearm)
	}
	// Warm up past the initial slab carving and queue growth.
	if err := e.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	slabs := len(e.slabs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := e.Run(1 << 50); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 64 {
		t.Fatalf("steady-state run performed %d allocations for %d events, want ~0", mallocs, n)
	}
	if len(e.slabs) != slabs {
		t.Fatalf("steady-state run carved %d new slabs", len(e.slabs)-slabs)
	}
	if n < 50_000 {
		t.Fatalf("only %d events fired", n)
	}
}
