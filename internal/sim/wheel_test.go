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

// spanDelay maps a delay class and a magnitude to a delay spread across
// every wheel tier — the current tick, each level's span, and past the
// wheel's total horizon — so placement, cascades and the overflow-to-heap
// path are all exercised. Spans are derived from the wheel constants so
// the distribution tracks the tick size.
func spanDelay(class byte, mag uint64) time.Duration {
	span := func(lvl int) uint64 {
		return 1 << (wheelTickShift + lvl*wheelLevelBits)
	}
	switch class % 12 {
	case 0:
		return 0
	case 1: // sub-tick: lands in the heap (current tick already flushed)
		return time.Duration(mag % span(0))
	case 2, 3, 4, 5: // level 0 span
		return time.Duration(mag % span(1))
	case 6, 7: // level 1 span
		return time.Duration(mag % span(2))
	case 8: // level 2 span
		return time.Duration(mag % span(3))
	case 9, 10: // level 3 span
		return time.Duration(mag % span(4))
	default: // beyond the wheel horizon: must overflow to the heap
		return time.Duration(span(4) + mag%span(3))
	}
}

// advanceStep maps a step class and a magnitude to a clock advance, in
// jumps from sub-millisecond to multi-day so level cascades, slot
// boundaries and the overflow tier are all crossed.
func advanceStep(class byte, mag uint64) time.Duration {
	limit := [...]time.Duration{
		time.Millisecond, 100 * time.Millisecond, 100 * time.Millisecond,
		10 * time.Second, time.Hour, 100 * time.Hour,
	}[class%6]
	return time.Duration(mag % uint64(limit))
}

// rearmDelay derives a deterministic per-id delay so engine and model
// rearms are reproducible without sharing a random stream.
func rearmDelay(id int) time.Duration {
	return time.Duration(uint64(id) * 0x9E3779B97F4A7C15 % uint64(4*time.Second))
}

func shouldRearm(id int) bool { return id%3 == 0 }

// A differential op is diffOpSize bytes: the first packs the op's kind
// (mod diffKinds) and class (div diffKinds), the second seeds its
// magnitude (see opMag). Two bytes keep fuzz inputs short: the fuzzer
// minimizes every input that finds new coverage, in time quadratic in
// its length.
const diffOpSize = 2

// opMag spreads an op's magnitude byte over 64 bits, mixed with the op's
// position so repeated bytes still draw different delays and ids
// (splitmix64's finalizer).
func opMag(step int, b byte) uint64 {
	z := uint64(step)<<8 | uint64(b)
	z += 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

const (
	opSchedule    = iota // schedule a fresh event after spanDelay(class, mag)
	opDuplicate          // schedule a fresh event after the previous delay: same-time ordering
	opCancel             // cancel id mag%ids (fired ids make it a no-op)
	opRearm              // cancel id mag%ids and schedule a replacement
	opAdvance            // run both to the horizon moved by advanceStep(class, mag)
	opCancelTwice        // cancel id mag%ids twice through one handle
	opCancelStale        // cancel a fired id whose storage a live event reused
	diffKinds
)

// staleProbes bounds opCancelStale's search for a fired id whose event
// storage a later, still pending schedule took over.
const staleProbes = 64

// diffOps encodes TestWheelDifferentialRandom's workload for one seed:
// segs segments of 40–160 schedule/cancel/rearm ops, each closed by an
// advance. Some cancels go twice through one handle or through a stale
// handle whose storage a later schedule reused: neither may touch a live
// event or the dead count.
func diffOps(seed int64, segs int) []byte {
	r := rand.New(rand.NewSource(seed))
	var ops []byte
	op := func(kind, class int) {
		ops = append(ops, byte(class*diffKinds+kind), byte(r.Intn(256)))
	}
	for seg := 0; seg < segs; seg++ {
		for i, n := 0, 40+r.Intn(120); i < n; i++ {
			switch {
			case r.Intn(4) == 0:
				op(opCancel, 0)
			case r.Intn(8) == 0:
				op(opRearm, r.Intn(12))
			case r.Intn(6) == 0:
				op(opDuplicate, 0)
			case r.Intn(12) == 0:
				op(opCancelTwice, 0)
			case r.Intn(12) == 0:
				op(opCancelStale, 0)
			default:
				op(opSchedule, r.Intn(12))
			}
		}
		op(opAdvance, r.Intn(6))
	}
	return ops
}

// diffHarness drives the wheel-backed engine and the container/heap
// reference through one op sequence and demands the same firing order,
// clock and pending count from both.
type diffHarness struct {
	t         testing.TB
	eng       *Engine
	model     *diffModel
	got, want []int
	timers    map[int]Timer
	// Ids are allocated in fire order on each side, so they stay aligned
	// exactly as long as the firing orders match — the property under
	// test.
	engNext, refNext int
	lastDelay        time.Duration
	horizon          Time
}

// newDiffHarness starts a harness; spread starts the engine's wheel
// spreading events over the ways at once, as it does by itself past
// wheelWaysFrom stored events.
func newDiffHarness(t testing.TB, spread bool) *diffHarness {
	h := &diffHarness{t: t, eng: NewEngine(), model: newDiffModel(), timers: make(map[int]Timer)}
	if spread {
		h.eng.wh.wayMask = wheelWays - 1
	}
	h.eng.SetViolationHook(func(rule, detail string) {
		t.Errorf("engine violation %s: %s", rule, detail)
	})
	return h
}

// scheduleEng schedules id on the engine; its callback records the fire
// and replays the deterministic rearm rule.
func (h *diffHarness) scheduleEng(id int, delay time.Duration) {
	h.timers[id] = h.eng.Schedule(delay, func() {
		h.got = append(h.got, id)
		if shouldRearm(id) {
			nid := h.engNext
			h.engNext++
			h.scheduleEng(nid, rearmDelay(nid))
		}
	})
}

func (h *diffHarness) fireRef(id int) {
	h.want = append(h.want, id)
	if shouldRearm(id) {
		nid := h.refNext
		h.refNext++
		h.model.schedule(nid, h.model.now+rearmDelay(nid))
	}
}

func (h *diffHarness) schedule(d time.Duration) {
	h.lastDelay = d
	id := h.engNext
	h.engNext++
	h.refNext++
	h.scheduleEng(id, d)
	h.model.schedule(id, h.model.now+d)
}

// apply runs one encoded op on both sides.
func (h *diffHarness) apply(step int, op []byte) {
	kind, class, mag := op[0]%diffKinds, op[0]/diffKinds, opMag(step, op[1])
	switch kind {
	case opSchedule:
		h.schedule(spanDelay(class, mag))
	case opDuplicate:
		h.schedule(h.lastDelay)
	case opCancel, opRearm, opCancelTwice:
		if h.engNext == 0 {
			break
		}
		id := int(mag % uint64(h.engNext))
		h.timers[id].Cancel()
		if kind == opCancelTwice {
			h.timers[id].Cancel()
		}
		h.model.cancel(id)
		if kind == opRearm {
			h.schedule(spanDelay(class, mag>>32))
		}
	case opCancelStale:
		// The reference has nothing to do: the id already fired. The
		// pending check below catches a cancel that reached the live
		// event now in the id's storage.
		for k := 0; k < staleProbes && k < h.engNext; k++ {
			id := int((mag + uint64(k)) % uint64(h.engNext))
			tm := h.timers[id]
			if it := h.model.items[id]; it != nil && it.fired && tm.ev.seq != tm.seq && tm.ev.fn != nil {
				tm.Cancel()
				break
			}
		}
	case opAdvance:
		h.horizon += advanceStep(class, mag)
		h.advance(step, h.horizon)
	}
	if got, want := h.eng.Pending(), h.model.live; got != want {
		h.t.Fatalf("op %d: pending %d, reference %d", step, got, want)
	}
}

// advance runs both sides to horizon and compares everything they fired,
// their clocks, and the engine's structure.
func (h *diffHarness) advance(step int, horizon Time) {
	t := h.t
	if err := h.eng.Run(horizon); err != nil {
		t.Fatalf("op %d: %v", step, err)
	}
	h.model.run(horizon, h.fireRef)
	if len(h.got) != len(h.want) {
		t.Fatalf("op %d: engine fired %d events, reference %d", step, len(h.got), len(h.want))
	}
	for i := range h.got {
		if h.got[i] != h.want[i] {
			t.Fatalf("op %d: firing order diverges at %d: engine id %d, reference id %d",
				step, i, h.got[i], h.want[i])
		}
	}
	if h.eng.Now() != h.model.now {
		t.Fatalf("op %d: clock %v, reference %v", step, h.eng.Now(), h.model.now)
	}
	if err := h.eng.VerifyHeap(); err != nil {
		t.Fatalf("op %d: %v", step, err)
	}
}

// runDiffOps applies every whole op in ops, then drains both sides,
// far-future overflow events included.
func runDiffOps(t testing.TB, ops []byte, spread bool) {
	h := newDiffHarness(t, spread)
	step := 0
	for ; (step+1)*diffOpSize <= len(ops); step++ {
		h.apply(step, ops[step*diffOpSize:(step+1)*diffOpSize])
	}
	h.advance(step, 1<<62)
	if p := h.eng.Pending(); p != 0 {
		t.Fatalf("drain: %d events still pending", p)
	}
}

// TestWheelDifferentialRandom is the main property test: a randomized
// schedule/cancel/rearm workload driven simultaneously through the
// wheel-backed engine and the container/heap reference, advancing the
// clock in jumps from sub-millisecond to multi-day so level cascades,
// slot boundaries and the overflow tier are all crossed. Firing order,
// clock, and pending counts must match exactly at every step, and the
// engine must verify structurally clean throughout. Each seed runs once
// with every event in way 0 and once spread over the ways.
func TestWheelDifferentialRandom(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runDiffOps(t, diffOps(seed, 25), false)
			runDiffOps(t, diffOps(seed, 25), true)
		})
	}
}

// FuzzWheelDifferential decodes the fuzz input into a schedule, cancel,
// rearm, double-cancel, stale-cancel and advance op sequence (diffOpSize
// bytes per op) and runs it
// through the engine and the reference model, which must agree at every
// step, both with every event in way 0 and spread over the ways. The
// seed corpus is TestWheelDifferentialRandom's workloads, cut to one
// segment each.
func FuzzWheelDifferential(f *testing.F) {
	const maxOps = 512
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(diffOps(seed, 1))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > maxOps*diffOpSize {
			ops = ops[:maxOps*diffOpSize]
		}
		runDiffOps(t, ops, false)
		runDiffOps(t, ops, true)
	})
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

// TestWheelDenseCascade fills slots on every upper level with dozens of
// events in each of their ways, cancels a third of them across the ways,
// forces a compaction sweep between cascades, and pins the firing order
// to a heap-only engine's. The engine verifies clean at every stop. A
// first batch of wheelWaysFrom canceled events switches the wheel to
// spreading events over the ways, the way a large simulation does.
func TestWheelDenseCascade(t *testing.T) {
	t.Parallel()
	const perSlot = 96
	build := func(e *Engine) (fired []int, live int) {
		wheel := !e.heapOnly
		var timers []Timer
		cancel := func(i int) {
			timers[i].Cancel()
			live--
		}
		add := func(at Time) {
			id := len(timers)
			timers = append(timers, e.ScheduleAt(at, func() { fired = append(fired, id) }))
			live++
		}
		// dense schedules perSlot events into level-lvl slots 1–3 of the
		// frontier's block, spread over the slot's ticks with repeated
		// timestamps, and cancels every third one.
		dense := func(lvl int) {
			from := len(timers)
			block := tickOf(e.Now()) >> ((lvl + 1) * wheelLevelBits) << ((lvl + 1) * wheelLevelBits)
			for slot := uint64(1); slot <= 3; slot++ {
				start := block + slot<<(lvl*wheelLevelBits)
				for k := uint64(0); k < perSlot; k++ {
					ti := start + k*37%(1<<(lvl*wheelLevelBits))
					add(Time(ti<<wheelTickShift) + Time(k%3))
				}
			}
			for i := from + 1; i < len(timers); i += 3 {
				cancel(i)
			}
		}
		stop := func(at Time) {
			if err := e.Run(at); err != nil {
				t.Fatal(err)
			}
			if err := e.VerifyHeap(); err != nil {
				t.Fatalf("stop at %v: %v", at, err)
			}
		}
		for i := 0; i < wheelWaysFrom; i++ {
			add(Time(7<<(3*wheelLevelBits+wheelTickShift)) + Time(i))
		}
		if wheel && e.wh.wayMask != wheelWays-1 {
			t.Fatalf("way mask %d after %d stored events, want %d", e.wh.wayMask, wheelWaysFrom, wheelWays-1)
		}
		for i := range timers {
			cancel(i)
		}
		for lvl := 1; lvl < wheelLevels; lvl++ {
			dense(lvl)
		}
		if wheel {
			for lvl := 1; lvl < wheelLevels; lvl++ {
				for slot := uint64(1); slot <= 3; slot++ {
					n := 0
					for way := 0; way < wheelWays; way++ {
						head := *e.wh.head(lvl, slot, way)
						if head == nil {
							t.Fatalf("level %d slot %d way %d empty", lvl, slot, way)
						}
						for ev := head; ev != nil; ev = ev.next {
							n++
						}
					}
					if n != perSlot {
						t.Fatalf("level %d slot %d holds %d events, want %d", lvl, slot, n, perSlot)
					}
				}
			}
		}
		// Cascade level-1 slots 1 and 2, dropping their canceled events.
		stop(Time(3 << (wheelLevelBits + wheelTickShift)))
		// A ring of watchdogs nearly all canceled tips the wheel into a
		// dead majority: the sweep compacts the dense slots still parked
		// on levels 1–3 before they cascade.
		from := len(timers)
		for i := 0; i < 400; i++ {
			add(Time(5<<(3*wheelLevelBits+wheelTickShift)) + Time(i))
		}
		deadBefore := e.dead
		for i := from; i < len(timers); i++ {
			if i%10 != 0 {
				cancel(i)
			}
		}
		if wheel && e.dead >= deadBefore+360 {
			t.Fatalf("no compaction: dead count %d", e.dead)
		}
		stop(Time(3 << (2*wheelLevelBits + wheelTickShift)))
		// Mid-run, against a moved frontier: more dense level-1 slots.
		dense(1)
		stop(Time(3 << (3*wheelLevelBits + wheelTickShift)))
		stop(1 << 62)
		return fired, live
	}
	wheelFired, live := build(NewEngine())
	heapEng := NewEngine()
	heapEng.SetHeapOnly(true)
	heapFired, _ := build(heapEng)
	if len(wheelFired) != len(heapFired) {
		t.Fatalf("wheel fired %d events, heap-only %d", len(wheelFired), len(heapFired))
	}
	for i := range wheelFired {
		if wheelFired[i] != heapFired[i] {
			t.Fatalf("firing order diverges at %d: wheel id %d, heap-only id %d", i, wheelFired[i], heapFired[i])
		}
	}
	if len(wheelFired) != live {
		t.Fatalf("%d events fired, want the %d never canceled", len(wheelFired), live)
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
	if e.dead >= heapCompactionThreshold {
		t.Fatalf("dead count %d after mass cancel, want < %d", e.dead, heapCompactionThreshold)
	}
	if want := n - cancelled + e.dead; e.wh.count != want {
		t.Fatalf("wheel count %d after compaction, want %d", e.wh.count, want)
	}
	if got, want := freeListLen(e), freeBefore+cancelled-e.dead; got != want {
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
	// load parks 20 events on levels 1 and 2, spread over the ways.
	load := func() *Engine {
		e := NewEngine()
		e.wh.wayMask = wheelWays - 1
		for i := 0; i < 10; i++ {
			e.Schedule(time.Duration(i+1)*time.Millisecond, func() {})
			e.Schedule(time.Duration(i+1)*time.Second, func() {})
		}
		return e
	}
	// emptySlot reports whether every list of slot s at level lvl is empty.
	emptySlot := func(e *Engine, lvl int, s uint64) bool {
		for way := 0; way < waysAt(lvl); way++ {
			if *e.wh.head(lvl, s, way) != nil {
				return false
			}
		}
		return true
	}
	// firstSlot returns the first occupied slot's coordinates and its
	// first non-empty list head.
	firstSlot := func(e *Engine) (lvl int, s uint64, head **Event) {
		for lvl := 0; lvl < wheelLevels; lvl++ {
			for s := uint64(0); s < wheelSlots; s++ {
				for way := 0; way < waysAt(lvl); way++ {
					if h := e.wh.head(lvl, s, way); *h != nil {
						return lvl, s, h
					}
				}
			}
		}
		panic("no occupied slot in loaded engine")
	}
	first := func(e *Engine) *Event {
		_, _, head := firstSlot(e)
		return *head
	}
	cases := []struct {
		name    string
		corrupt func(e *Engine)
		want    string
	}{
		{"dead-count-out-of-range", func(e *Engine) { e.dead = e.wh.count + 1 }, "dead count"},
		{"way-mask-out-of-range", func(e *Engine) { e.wh.wayMask = 1 }, "way mask"},
		{"occupancy-bit-cleared", func(e *Engine) {
			lvl, s, _ := firstSlot(e)
			e.wh.occ[lvl][s>>6] &^= 1 << (s & 63)
		}, "occupancy bit"},
		{"occupancy-bit-set-all-ways-empty", func(e *Engine) {
			// A level-1 slot none of the load's events use.
			s := uint64(wheelSlots - 1)
			if !emptySlot(e, 1, s) {
				panic("level-1 slot expected empty")
			}
			e.wh.occ[1][s>>6] |= 1 << (s & 63)
		}, "occupancy bit true disagrees"},
		// A canceled (nil-fn) event the dead count misses, and a dead
		// count that includes a live event.
		{"dead-miscount", func(e *Engine) { first(e).fn = nil }, "dead count is"},
		{"dead-overcount", func(e *Engine) { e.dead++ }, "dead count is"},
		{"event-behind-frontier", func(e *Engine) {
			e.wh.cur += wheelMaxTick // frontier teleports past everything
		}, "behind frontier"},
		{"next-bound-violated", func(e *Engine) {
			e.wh.next = tickOf(first(e).at) + 1
		}, "below next-tick bound"},
		{"misplaced-event", func(e *Engine) {
			lvl, s, head := firstSlot(e)
			ev := *head
			*head = ev.next
			if emptySlot(e, lvl, s) {
				e.wh.occ[lvl][s>>6] &^= 1 << (s & 63)
			}
			// Relink it into a guaranteed-wrong slot of the same level,
			// in the way its seq picks there.
			wrong := (s + 7) & wheelSlotMask
			dst := e.wh.head(lvl, wrong, int(ev.seq&e.wh.wayMask))
			ev.next = *dst
			*dst = ev
			e.wh.occ[lvl][wrong>>6] |= 1 << (wrong & 63)
		}, "placed at level"},
		{"misplaced-in-way-3", func(e *Engine) {
			// Move a level-1 event whose seq picks another way into way
			// 3 of the same slot.
			for s := uint64(0); s < wheelSlots; s++ {
				for way := 0; way < 3; way++ {
					if h := e.wh.head(1, s, way); *h != nil {
						ev := *h
						*h = ev.next
						w3 := e.wh.head(1, s, 3)
						ev.next = *w3
						*w3 = ev
						return
					}
				}
			}
			panic("no level-1 event outside way 3")
		}, "way 3, want way"},
		{"count-mismatch", func(e *Engine) { e.wh.count++ }, "count is"},
		{"wheel-event-on-free-list", func(e *Engine) {
			ev := first(e)
			ev.next = e.free
			e.free = ev
		}, "also on the free list"},
		{"event-in-both-tiers", func(e *Engine) {
			ev := first(e)
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
