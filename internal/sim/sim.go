// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock (a time.Duration measured from the
// start of the simulation) and a two-tier timer store. All simulated
// components — servers, workload generators, monitoring agents,
// controllers — run as callbacks on a single goroutine, so a run is a pure
// function of its inputs and seeds.
//
// Scheduled events live in one of two structures. Bounded-horizon delays
// — the overwhelming majority: think times, deadlines, retry backoffs,
// monitor ticks — go into a hierarchical timer wheel (wheel.go) at O(1)
// per schedule. Its upper-level slots, the ones that cascade, can each
// hold four interleaved lists: once the wheel has held more events than
// fit in a core's L2 cache it spreads them over the four, so a cascade
// through the cache-cold arena keeps four misses in flight rather than
// one. A hand-rolled 4-ary min-heap specialized to *Event (no
// interface boxing, no per-sift index maintenance) is the firing
// frontier: due wheel slots are flushed into it, it holds events beyond
// the wheel's ~1.2-hour horizon, and its pop order is the engine's total
// order. Because both tiers order by the unique (at, seq) key, same-time
// events fire in schedule order regardless of which structure held them
// — the pop stream is byte-identical to a heap-only engine's.
//
// Fired or canceled events are recycled through slab-allocated arenas
// (arena.go) instead of being left to the garbage collector. An Event is
// 32 bytes — time, seq, callback, link — so a million pending events
// take 32 MB. The schedule seq doubles as the generation stamp that
// keeps stale Timer handles harmless, and a nil callback marks a
// canceled event. Canceled events are removed lazily in both tiers;
// when they make up the majority of all queued events, one pass
// compacts both tiers. On the schedule/fire hot path the engine
// performs zero allocations at steady state.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Time is a virtual timestamp: the duration elapsed since simulation start.
type Time = time.Duration

// Event is one scheduled callback, owned by the engine. Its storage is
// recycled after it fires or is canceled, so external code never holds a
// *Event directly — Schedule returns a Timer handle that stays safe to
// use after the event completed.
//
// Event is 32 bytes: two fit in a cache line and none straddles one.
// seq rises on every schedule and is never reused, so it doubles as the
// generation stamp Timer handles check. A queued event with a nil fn is
// canceled (the engine never queues a nil callback), and the free list
// holds only nil-fn events.
type Event struct {
	at   Time
	seq  uint64 // schedule order: the tie-break at equal times and the generation stamp
	fn   func()
	next *Event // free-list or wheel-slot link
}

// Timer is a cancellable handle to a scheduled event. It is a small value
// type; the zero Timer is inert (Cancel is a no-op, Pending reports
// false). Unlike a raw pointer, a Timer remains safe to use after its
// event fired: the engine recycles event storage, and a recycled event
// carries a later seq than the handle, which makes operations through
// the handle harmless no-ops.
type Timer struct {
	eng *Engine
	ev  *Event
	seq uint64
}

// Cancel prevents a pending event from firing. Canceling an event that
// already fired, was already canceled, or was never scheduled (the zero
// Timer) is a no-op.
func (t Timer) Cancel() {
	ev := t.ev
	if ev == nil {
		return
	}
	if ev.seq != t.seq {
		// A handle behind its event is a legally stale timer (the event
		// fired and a later schedule reused its storage); a handle AHEAD
		// of the event means the free list recycled a live event.
		if t.seq > ev.seq && t.eng.vhook != nil {
			t.eng.vhook(RuleTimerGeneration, fmt.Sprintf(
				"timer seq %d ahead of event seq %d", t.seq, ev.seq))
		}
		return
	}
	if ev.fn == nil {
		return // already fired or canceled
	}
	ev.fn = nil
	t.eng.dead++
	t.eng.maybeCompact()
}

// heapEntry is one queue slot. The full sort key (at, seq) is stored
// inline so sift comparisons walk the contiguous heap array and never
// chase *Event pointers — on the schedule/fire hot path that pointer
// traffic is ~25% of total engine time, and in a large simulation the
// event pool is cold memory.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *Event
}

// Engine is the discrete-event scheduler. The zero value is not usable;
// construct one with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   []heapEntry
	dead    int    // canceled events still queued in either tier
	free    *Event // recycled events, linked through Event.next
	slabs   [][]Event
	wh      wheel
	stopped bool

	// heapOnly routes every schedule to the heap, bypassing the wheel.
	// It exists as a measurement baseline and differential-test oracle
	// (see SetHeapOnly), not an operating mode.
	heapOnly bool

	processed uint64
	maxEvents uint64

	// vhook, when installed, receives descriptions of structural-law
	// violations detected by the engine's own self-checks (event-order,
	// timer-generation). It is a plain callback rather than a concrete
	// checker type so the event core stays dependency-free; the hot path
	// pays one nil comparison when disabled.
	vhook func(rule, detail string)
}

// Violation rule names passed to the hook installed by SetViolationHook;
// internal/invariant records them as its Rule values of the same names.
const (
	RuleEventOrder      = "event-order"
	RuleTimerGeneration = "timer-generation"
)

// SetViolationHook installs fn to receive engine self-check violations
// (nil uninstalls). The engine never calls it on a correct run: firing an
// event before the clock or seeing a timer handle from the future both
// mean the heap or free list corrupted state.
func (e *Engine) SetViolationHook(fn func(rule, detail string)) { e.vhook = fn }

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{maxEvents: defaultMaxEvents}
	e.wh.next = noTick
	return e
}

// SetHeapOnly disables (true) or re-enables (false) the timer wheel for
// events scheduled after the call: every delay then goes straight to
// the 4-ary heap, reproducing the pre-wheel engine. Because both tiers
// order by the same (at, seq) key, the firing order — and therefore
// every simulation result — is identical either way; the knob exists so
// benchmarks can measure the wheel against the heap-only baseline and
// differential tests can drive both engines through one workload.
func (e *Engine) SetHeapOnly(v bool) { e.heapOnly = v }

// defaultMaxEvents bounds runaway simulations (e.g. an accidental
// zero-delay self-rescheduling loop) instead of hanging forever.
const defaultMaxEvents = 500_000_000

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// SetEventLimit overrides the safety cap on executed events. A limit of 0
// restores the default.
func (e *Engine) SetEventLimit(n uint64) {
	if n == 0 {
		n = defaultMaxEvents
	}
	e.maxEvents = n
}

// ErrEventLimit is returned by Run when the engine's event budget is
// exhausted, which almost always indicates a scheduling loop.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// Schedule runs fn after delay. A negative delay is treated as zero: the
// event fires at the current time, after events already scheduled for that
// time. The returned Timer may be used to cancel the callback.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at (clamped to now). It is
// the fast path for pre-computed timestamps: no delay arithmetic, one
// O(1) wheel insert (or one heap push for past-tick and far-future
// times).
func (e *Engine) ScheduleAt(at Time, fn func()) Timer {
	if fn == nil {
		return Timer{}
	}
	if at < e.now {
		at = e.now
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.enqueue(ev)
	return Timer{eng: e, ev: ev, seq: ev.seq}
}

// enqueue stores a freshly stamped event in the tier that owns its
// timestamp: the wheel for bounded-horizon ticks not yet flushed, the
// heap for everything else (the current tick, the flushed past, and
// times beyond the wheel's span).
func (e *Engine) enqueue(ev *Event) {
	if !e.heapOnly {
		if ti := tickOf(ev.at); ti >= e.wh.cur && e.wh.place(ev, ti) {
			return
		}
	}
	e.push(heapEntry{at: ev.at, seq: ev.seq, ev: ev})
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the clock would pass horizon,
// the queue drains, or Stop is called. The clock is left at the time of the
// last executed event (or at horizon if the queue drained earlier and
// advance-to-horizon is implied by a later Run call).
func (e *Engine) Run(horizon Time) error {
	e.stopped = false
	for !e.stopped {
		// Flush due wheel slots into the heap before trusting its
		// minimum: every wheel event up to the earlier of the heap top
		// and the horizon must be in the heap for (at, seq) ordering to
		// be global. The cached lower bound makes the common no-op case
		// one comparison; wheelAdvance re-tightens the bound against the
		// heap top after every slot it flushes.
		if e.wh.count > 0 && horizon >= 0 {
			limit := horizon
			if len(e.queue) > 0 && e.queue[0].at < limit {
				limit = e.queue[0].at
			}
			if e.wh.next <= tickOf(limit) {
				e.wheelAdvance(tickOf(horizon))
			}
		}
		if len(e.queue) == 0 {
			break
		}
		next := e.queue[0]
		if next.at > horizon {
			break
		}
		e.pop()
		ev := next.ev
		fn := ev.fn
		if fn == nil {
			e.dead--
			e.release(ev)
			continue
		}
		if e.vhook != nil && next.at < e.now {
			e.vhook(RuleEventOrder, fmt.Sprintf(
				"event fired at %v with clock already at %v", next.at, e.now))
		}
		e.now = next.at
		// Recycle before firing so the rearm pattern (fire → schedule)
		// reuses this event's storage; fn was copied out above, and the
		// next schedule's seq invalidates stale Timers.
		e.release(ev)
		e.processed++
		if e.processed > e.maxEvents {
			return fmt.Errorf("%w (%d events)", ErrEventLimit, e.maxEvents)
		}
		fn()
	}
	if e.now < horizon && !e.stopped {
		e.now = horizon
	}
	return nil
}

// Pending returns the number of live events still queued in either tier
// (canceled events awaiting lazy removal are not counted).
func (e *Engine) Pending() int {
	return len(e.queue) + e.wh.count - e.dead
}

// Ticker invokes fn every period, starting one period from now, until the
// returned stop function is called. It is the simulated analogue of
// time.Ticker and is used for monitoring and control loops.
func (e *Engine) Ticker(period time.Duration, fn func()) (stop func()) {
	if period <= 0 {
		return func() {}
	}
	var (
		tm      Timer
		stopped bool
	)
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			tm = e.Schedule(period, tick)
		}
	}
	tm = e.Schedule(period, tick)
	return func() {
		stopped = true
		tm.Cancel()
	}
}

// --- 4-ary min-heap over (at, seq), specialized to *Event. ---

// eventLess orders entries by time, then schedule order. The (at, seq)
// key is unique per event, so the pop order is a total order independent
// of the heap's internal layout — compaction cannot perturb determinism.
func eventLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(en heapEntry) {
	e.queue = append(e.queue, en)
	e.siftUp(len(e.queue) - 1)
}

// pop removes the minimum entry (the caller already read e.queue[0]).
// pop removes the root using bottom-up deletion: the hole left by the
// minimum descends along the min-child path to a leaf, then the former
// last element drops in and sifts up. The last element is almost always
// leaf-sized, so comparing it against the min child at every level (as a
// plain siftDown from the root would) is wasted work.
func (e *Engine) pop() {
	q := e.queue
	n := len(q) - 1
	last := q[n]
	q[n] = heapEntry{}
	e.queue = q[:n]
	if n == 0 {
		return
	}
	q = e.queue
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		bat, bseq := q[first].at, q[first].seq
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			cat, cseq := q[c].at, q[c].seq
			if cat < bat || (cat == bat && cseq < bseq) {
				best, bat, bseq = c, cat, cseq
			}
		}
		q[i] = q[best]
		i = best
	}
	q[i] = last
	e.siftUp(i)
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	en := q[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := q[parent]
		if !eventLess(en, p) {
			break
		}
		q[i] = p
		i = parent
	}
	q[i] = en
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	en := q[i]
	eat, eseq := en.at, en.seq
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		// Scan the up-to-4 children keeping the running minimum's sort key
		// in registers; re-reading q[best] per comparison dominates the
		// fire loop otherwise.
		best := first
		bat, bseq := q[first].at, q[first].seq
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			cat, cseq := q[c].at, q[c].seq
			if cat < bat || (cat == bat && cseq < bseq) {
				best, bat, bseq = c, cat, cseq
			}
		}
		if bat > eat || (bat == eat && bseq >= eseq) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = en
}

// heapify re-establishes the heap property over the whole queue in O(n).
func (e *Engine) heapify() {
	n := len(e.queue)
	for i := (n - 2) >> 2; i >= 0; i-- {
		e.siftDown(i)
	}
}

// VerifyHeap runs the engine's O(n) structural self-check across both
// timer tiers and the arena: the 4-ary heap property over (at, seq), no
// queued event in the past, entry sort keys consistent with their
// events, the dead count equal to the canceled (nil-fn) events queued in
// both tiers, wheel slot placement and occupancy bitmaps, the
// flush-frontier and next-tick bounds, pairwise disjointness of heap,
// wheel and free list, and the arena balance (every slab-allocated event
// on exactly one of the three). It is read-only and intended for
// periodic or end-of-run invariant sweeps, not hot paths.
func (e *Engine) VerifyHeap() error {
	q := e.queue
	if stored := len(q) + e.wh.count; e.dead < 0 || e.dead > stored {
		return fmt.Errorf("sim: dead count %d out of range [0,%d]", e.dead, stored)
	}
	cancelled := 0
	for i := range q {
		en := q[i]
		if en.ev == nil {
			return fmt.Errorf("sim: queue[%d] has nil event", i)
		}
		if en.ev.at != en.at || en.ev.seq != en.seq {
			return fmt.Errorf("sim: queue[%d] sort key (%v,%d) disagrees with event (%v,%d)",
				i, en.at, en.seq, en.ev.at, en.ev.seq)
		}
		if en.at < e.now {
			return fmt.Errorf("sim: queue[%d] scheduled at %v, before clock %v", i, en.at, e.now)
		}
		if en.ev.fn == nil {
			cancelled++
		}
		if i > 0 {
			parent := (i - 1) >> 2
			if eventLess(en, q[parent]) {
				return fmt.Errorf("sim: heap property violated at index %d (parent %d)", i, parent)
			}
		}
	}
	onFreeList := make(map[*Event]bool)
	for ev := e.free; ev != nil; ev = ev.next {
		if onFreeList[ev] {
			return fmt.Errorf("sim: free list contains a cycle")
		}
		onFreeList[ev] = true
	}
	for i := range q {
		if onFreeList[q[i].ev] {
			return fmt.Errorf("sim: queue[%d] event is also on the free list", i)
		}
	}
	wheelCancelled, err := e.verifyWheel(onFreeList)
	if err != nil {
		return err
	}
	if cancelled += wheelCancelled; cancelled != e.dead {
		return fmt.Errorf("sim: %d cancelled events queued but dead count is %d", cancelled, e.dead)
	}
	total := 0
	for _, slab := range e.slabs {
		total += len(slab)
	}
	if stored := len(onFreeList) + len(q) + e.wh.count; stored != total {
		return fmt.Errorf("sim: arena balance broken: %d free + %d heap + %d wheel events != %d slab-allocated",
			len(onFreeList), len(q), e.wh.count, total)
	}
	return nil
}

// verifyWheel checks the wheel tier: every stored event is linked in the
// slot its (tick, frontier) placement demands and, above level 0, in way
// 0 or the way its seq picks; occupancy bits mirror slot emptiness, the
// count and the next-tick lower bound hold, and no wheel event also sits
// on the free list or in the heap. It returns the number of canceled
// events the wheel stores.
func (e *Engine) verifyWheel(onFreeList map[*Event]bool) (cancelled int, err error) {
	w := &e.wh
	if w.wayMask != 0 && w.wayMask != wheelWays-1 {
		return 0, fmt.Errorf("sim: wheel way mask %d, want 0 or %d", w.wayMask, wheelWays-1)
	}
	inWheel := make(map[*Event]bool)
	stored := 0
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for s := uint64(0); s < wheelSlots; s++ {
			occupied := w.occ[lvl][s>>6]&(1<<(s&63)) != 0
			empty := true
			for way := 0; way < waysAt(lvl); way++ {
				empty = empty && *w.head(lvl, s, way) == nil
			}
			if empty == occupied {
				return 0, fmt.Errorf("sim: wheel level %d slot %d occupancy bit %v disagrees with list", lvl, s, occupied)
			}
			for way := 0; way < waysAt(lvl); way++ {
				for ev := *w.head(lvl, s, way); ev != nil; ev = ev.next {
					if inWheel[ev] {
						return 0, fmt.Errorf("sim: wheel level %d slot %d links an event twice", lvl, s)
					}
					inWheel[ev] = true
					stored++
					if ev.fn == nil {
						cancelled++
					}
					if ev.at < e.now {
						return 0, fmt.Errorf("sim: wheel level %d slot %d event at %v, before clock %v", lvl, s, ev.at, e.now)
					}
					ti := tickOf(ev.at)
					if ti < w.cur {
						return 0, fmt.Errorf("sim: wheel level %d slot %d event tick %d behind frontier %d", lvl, s, ti, w.cur)
					}
					if ti < w.next {
						return 0, fmt.Errorf("sim: wheel level %d slot %d event tick %d below next-tick bound %d", lvl, s, ti, w.next)
					}
					if wantLvl := levelFor(ti, w.cur); wantLvl != lvl || slotOf(ti, lvl) != s {
						return 0, fmt.Errorf("sim: wheel event at %v placed at level %d slot %d, want level %d slot %d",
							ev.at, lvl, s, wantLvl, slotOf(ti, wantLvl))
					}
					// Way 0 also holds events placed before the wheel
					// first spread over the ways.
					if want := ev.seq & w.wayMask; way != 0 && uint64(way) != want {
						return 0, fmt.Errorf("sim: wheel event seq %d placed in level %d slot %d way %d, want way %d",
							ev.seq, lvl, s, way, want)
					}
					if onFreeList[ev] {
						return 0, fmt.Errorf("sim: wheel level %d slot %d event is also on the free list", lvl, s)
					}
				}
			}
		}
	}
	if stored != w.count {
		return 0, fmt.Errorf("sim: wheel stores %d events but count is %d", stored, w.count)
	}
	for i := range e.queue {
		if inWheel[e.queue[i].ev] {
			return 0, fmt.Errorf("sim: queue[%d] event is also in the wheel", i)
		}
	}
	return cancelled, nil
}

// heapCompactionThreshold is the minimum number of dead events, both
// tiers together, before a compaction pass is considered (small
// populations are cheaper to drain lazily).
const heapCompactionThreshold = 64

// maybeCompact drops canceled events from both tiers once they make up
// the majority of everything queued — the watchdog-heavy pattern where
// nearly every scheduled deadline is canceled long before it is due
// would otherwise keep sift paths needlessly deep and pin the canceled
// events' storage until the frontier reaches them.
func (e *Engine) maybeCompact() {
	if e.dead < heapCompactionThreshold || e.dead <= (len(e.queue)+e.wh.count)/2 {
		return
	}
	q := e.queue
	live := q[:0]
	for _, en := range q {
		if en.ev.fn == nil {
			e.release(en.ev)
		} else {
			live = append(live, en)
		}
	}
	if len(live) < len(q) {
		for i := len(live); i < len(q); i++ {
			q[i] = heapEntry{}
		}
		e.queue = live
		e.heapify()
	}
	if e.wh.count > 0 {
		e.compactWheel()
	}
	e.dead = 0
}
