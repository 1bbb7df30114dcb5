// The hierarchical timer wheel: the engine's bounded-horizon tier.
//
// Almost all delays a simulation schedules are homogeneous and bounded —
// think times, deadlines, retry backoffs, monitor ticks — and pushing
// each through an O(log n) heap makes the heap's depth track the whole
// standing population. The wheel stores those events in O(1) per
// schedule: four levels of 256 slots each, with a slot at level k
// covering 2^(10+8k) ns of virtual time (level 0's tick is 2^10 ns ≈
// 1 µs; the whole wheel spans 2^42 ns ≈ 1.2 h). Events beyond the
// wheel's horizon overflow to the 4-ary heap, which also remains the
// firing frontier: when a level-0 slot comes due its events are flushed
// into the heap, and the heap — tiny, because it only ever holds the
// current tick plus overflow — produces the exact (at, seq) total order.
// Same-deadline events therefore fire in schedule order regardless of
// which structure held them, and the engine's pop order is byte-for-byte
// identical to the heap-only engine's.
//
// Slots are singly-linked LIFO lists threaded through Event.next (an
// event is on exactly one of: a slot list, the heap, the free list), so
// the wheel allocates nothing. A slot on levels 1–3 can hold wheelWays
// independent lists. Those slots are the ones that cascade: a think time
// parks on level 2 and moves down twice, a millisecond service timer
// parks on level 1 and moves down once. At 10⁶ pending events the arena
// is far larger than the caches, so every link a cascade follows is a
// miss, and on one list each miss waits for the one before it. Once the
// wheel has held more events than fit in a core's L2 cache
// (wheelWaysFrom), an event joins the way its seq picks, and a cascade
// drains the ways round-robin, keeping up to wheelWays misses in flight
// at once. Below that every event joins way 0, which is laid out as one
// contiguous array per level, so a small simulation touches exactly the
// memory a single-list wheel does: its cascades hit in cache anyway, and
// the extra lists would only spread its slot heads over more cache
// lines. Level 0 keeps a single list per slot: its slots are one tick
// wide and flushed soon after the cascade that filled them, so their
// events are still warm. The order of events within a slot never
// mattered — the heap decides it — so the ways leave the pop stream
// unchanged. Per-level occupancy bitmaps let the advance loop jump over
// empty slots, keeping sparse schedules (one monitor tick per simulated
// second) as cheap as dense ones. Canceled events are dropped lazily at
// flush/cascade time; when they dominate the engine's queued events the
// heap's compaction pass sweeps them out of the wheel too.
package sim

import "math/bits"

const (
	// wheelTickShift sets the level-0 tick: 2^10 ns ≈ 1 µs. The tick
	// trades pop depth against advance overhead: fine enough that a busy
	// simulation parks only a handful of events per tick (so the firing
	// heap stays a few entries deep), coarse enough that frontier
	// advances skip idle time in a few bitmap scans. Delays shorter than
	// a tick (or in the already-flushed past) go straight to the heap;
	// everything from sub-millisecond service events to hour-scale fault
	// schedules lands in the wheel.
	wheelTickShift = 10
	// wheelLevelBits is log2 of the slots per level.
	wheelLevelBits = 8
	wheelSlots     = 1 << wheelLevelBits
	wheelSlotMask  = wheelSlots - 1
	wheelLevels    = 4
	// wheelWays is the number of lists per slot on levels 1 and up; a
	// power of two, so an event's way is seq&(wheelWays-1).
	wheelWays = 4
	// wheelWaysFrom is the stored-event count at which the wheel starts
	// spreading events over the ways: 2^15 events of 32 B are 1 MiB,
	// within one core's L2 cache (1–2 MiB on current x86 and arm64
	// server cores), so the arena outgrows L2 soon after.
	wheelWaysFrom = 1 << 15
	// wheelMaxTick is the first tick index past the wheel's total span;
	// events at or beyond it overflow to the far-future heap tier.
	wheelMaxTick = uint64(1) << (wheelLevelBits * wheelLevels)

	noTick = ^uint64(0)
)

// tickOf maps a virtual timestamp to its wheel tick index.
func tickOf(t Time) uint64 { return uint64(t) >> wheelTickShift }

// wheel is the engine's bounded-horizon event tier. The zero value is
// ready to use (cur 0, next noTick).
type wheel struct {
	// occ is the per-level occupancy bitmap: bit s of level l is set iff
	// some list of slot s at level l is non-empty.
	occ [wheelLevels][wheelSlots / 64]uint64
	// cur is the flush frontier: every event with tick < cur has left the
	// wheel. Events scheduled for ticks < cur go straight to the heap.
	cur uint64
	// count is the number of events currently stored, including canceled
	// ones awaiting lazy removal (the engine's dead count covers those).
	count int
	// next is a lower bound on the earliest tick any stored event can
	// fire at (noTick when empty) — the advance fast path compares it
	// against the needed tick and skips the bitmap scan entirely.
	next uint64
	// wayMask picks an event's way on levels 1 and up as seq&wayMask: 0
	// until count first reaches wheelWaysFrom, wheelWays-1 from then on.
	wayMask uint64
	// slot0 holds the head of each level-0 slot's LIFO event list,
	// linked through Event.next.
	slot0 [wheelSlots]*Event
	// upper holds the list heads of levels 1 and up: upper[l-1][way][s]
	// heads way `way` of level l's slot s.
	upper [wheelLevels - 1][wheelWays][wheelSlots]*Event
}

// levelFor returns the level an event at tick ti belongs to given the
// frontier cur, or -1 when ti is past the wheel's horizon. Placement is
// block-aligned: an event lives at the lowest level whose enclosing
// block it shares with cur, so cascading is only ever needed when the
// frontier crosses a block boundary.
func levelFor(ti, cur uint64) int {
	switch {
	case ti>>wheelLevelBits == cur>>wheelLevelBits:
		return 0
	case ti>>(2*wheelLevelBits) == cur>>(2*wheelLevelBits):
		return 1
	case ti>>(3*wheelLevelBits) == cur>>(3*wheelLevelBits):
		return 2
	case ti>>(4*wheelLevelBits) == cur>>(4*wheelLevelBits):
		return 3
	}
	return -1
}

// slotOf returns the slot index of tick ti at level lvl.
func slotOf(ti uint64, lvl int) uint64 {
	return (ti >> (lvl * wheelLevelBits)) & wheelSlotMask
}

// blockStart returns the first tick covered by ti's level-lvl slot — the
// earliest virtual time anything in that slot can fire.
func blockStart(ti uint64, lvl int) uint64 {
	return ti &^ (uint64(1)<<(lvl*wheelLevelBits) - 1)
}

// waysAt returns the number of lists a slot at level lvl has.
func waysAt(lvl int) int {
	if lvl == 0 {
		return 1
	}
	return wheelWays
}

// head returns the head of list `way` of slot s at level lvl.
func (w *wheel) head(lvl int, s uint64, way int) **Event {
	if lvl == 0 {
		return &w.slot0[s]
	}
	return &w.upper[lvl-1][way][s]
}

// place links ev into the slot for tick ti, or reports false when ti is
// past the wheel's horizon (the caller sends it to the heap). ti must be
// >= w.cur.
func (w *wheel) place(ev *Event, ti uint64) bool {
	lvl := levelFor(ti, w.cur)
	if lvl < 0 {
		return false
	}
	s := slotOf(ti, lvl)
	head := &w.slot0[s]
	if lvl > 0 {
		head = &w.upper[lvl-1][ev.seq&w.wayMask][s]
	}
	ev.next = *head
	*head = ev
	w.occ[lvl][s>>6] |= 1 << (s & 63)
	w.count++
	if w.count == wheelWaysFrom {
		w.wayMask = wheelWays - 1
	}
	if lb := blockStart(ti, lvl); lb < w.next {
		w.next = lb
	}
	return true
}

// firstOccupied returns the lowest occupied slot index >= from at level
// lvl, or -1 when none. Thanks to block-aligned placement no occupied
// slot can sit below the frontier's own index, so a forward scan of the
// bitmap is exhaustive.
func (w *wheel) firstOccupied(lvl int, from uint64) int {
	word := from >> 6
	mask := ^uint64(0) << (from & 63)
	for ; word < wheelSlots/64; word++ {
		if b := w.occ[lvl][word] & mask; b != 0 {
			return int(word<<6) + bits.TrailingZeros64(b)
		}
		mask = ^uint64(0)
	}
	return -1
}

// pushDown restores the placement invariant after the frontier moved:
// any level>=1 slot that now covers cur's own block holds events whose
// ticks share a smaller block with cur, so they cascade to lower levels.
// Levels are walked top-down so a level-3 cascade can feed the level-2
// slot that is itself about to cascade.
func (e *Engine) pushDown() {
	w := &e.wh
	for lvl := wheelLevels - 1; lvl >= 1; lvl-- {
		s := slotOf(w.cur, lvl)
		if w.occ[lvl][s>>6]&(1<<(s&63)) == 0 {
			continue
		}
		w.occ[lvl][s>>6] &^= 1 << (s & 63)
		ways := &w.upper[lvl-1]
		if w.wayMask == 0 {
			// Every event is in way 0; the other ways were never used.
			// The cascade is spelled out rather than called: a small
			// simulation cascades from cache, and there a call per event
			// is a measurable share of its schedule/fire cost.
			ev := ways[0][s]
			ways[0][s] = nil
			for ev != nil {
				next := ev.next
				w.count--
				if ev.fn == nil {
					e.dead--
					e.release(ev)
				} else {
					w.place(ev, tickOf(ev.at)) // always lands: same block as cur
				}
				ev = next
			}
			continue
		}
		var h [wheelWays]*Event
		for i := range h {
			h[i] = ways[i][s]
			ways[i][s] = nil
		}
		e.drain(&h)
	}
}

// drain cascades every event of one slot's ways. While two or more ways
// are non-empty it takes one event from each in turn, so their cache
// misses overlap instead of queuing behind one another; the last
// non-empty way is walked with the plain loop. The set of non-empty ways
// is a bit mask built without branches, since which ways a sparse slot
// uses is random.
func (e *Engine) drain(h *[wheelWays]*Event) {
	var live uint
	for i, ev := range h {
		live |= nonNil(ev) << i
	}
	for live&(live-1) != 0 {
		for r := live; r != 0; r &= r - 1 {
			i := bits.TrailingZeros(r)
			ev := h[i]
			if h[i] = ev.next; h[i] == nil {
				live &^= 1 << i
			}
			e.cascade(ev)
		}
	}
	if live == 0 {
		return
	}
	for ev := h[bits.TrailingZeros(live)]; ev != nil; {
		next := ev.next
		e.cascade(ev)
		ev = next
	}
}

// nonNil is 1 for a non-nil event and 0 for nil; the compiler turns it
// into a flag set, not a branch.
func nonNil(ev *Event) uint {
	if ev != nil {
		return 1
	}
	return 0
}

// cascade moves ev, just unlinked from a level>=1 slot that reached the
// frontier's block, down to the level its tick now belongs to, or
// reclaims it when it was canceled.
func (e *Engine) cascade(ev *Event) {
	w := &e.wh
	w.count--
	if ev.fn == nil {
		e.dead--
		e.release(ev)
		return
	}
	w.place(ev, tickOf(ev.at)) // always lands: same block as cur
}

// flushSlot0 moves every event of the due level-0 slot for tick ti into
// the heap (dropping canceled ones), where the (at, seq) order within
// the tick is decided exactly.
func (e *Engine) flushSlot0(ti uint64) {
	w := &e.wh
	s := ti & wheelSlotMask
	ev := w.slot0[s]
	w.slot0[s] = nil
	w.occ[0][s>>6] &^= 1 << (s & 63)
	for ev != nil {
		next := ev.next
		w.count--
		ev.next = nil
		if ev.fn == nil {
			e.dead--
			e.release(ev)
		} else {
			e.push(heapEntry{at: ev.at, seq: ev.seq, ev: ev})
		}
		ev = next
	}
}

// wheelAdvance moves the flush frontier forward until the heap's minimum
// is provably the engine's next event: every slot holding ticks due at or
// before the earlier of horizonTick and the heap's top is flushed into
// the heap (cascading higher levels as block boundaries are crossed).
// The bound is recomputed every step because flushing a slot populates
// the heap with that slot's tick, immediately tightening the limit — so
// an advance into an empty heap flushes exactly one due slot instead of
// draining the whole wheel up to the horizon.
func (e *Engine) wheelAdvance(horizonTick uint64) {
	w := &e.wh
	for w.count > 0 {
		limit := horizonTick
		if len(e.queue) > 0 {
			if ht := tickOf(e.queue[0].at); ht < limit {
				limit = ht
			}
		}
		// Level 0 first: its ticks always precede any higher level's
		// block start (higher-level slots cover strictly later blocks).
		if idx := w.firstOccupied(0, w.cur&wheelSlotMask); idx >= 0 {
			t := w.cur&^wheelSlotMask | uint64(idx)
			if t > limit {
				w.next = t
				return
			}
			w.cur = t
			e.flushSlot0(t)
			w.cur = t + 1
			e.pushDown()
			continue
		}
		adv := noTick
		for lvl := 1; lvl < wheelLevels; lvl++ {
			if idx := w.firstOccupied(lvl, slotOf(w.cur, lvl)); idx >= 0 {
				base := w.cur >> (lvl * wheelLevelBits) &^ wheelSlotMask
				adv = (base | uint64(idx)) << (lvl * wheelLevelBits)
				break
			}
		}
		if adv == noTick {
			// count > 0 but no occupied slot: unreachable unless the
			// bitmaps corrupted; VerifyHeap reports it.
			return
		}
		if adv > limit {
			w.next = adv
			if limit+1 > w.cur {
				w.cur = limit + 1
				e.pushDown()
			}
			return
		}
		w.cur = adv
		e.pushDown()
	}
	w.next = noTick
	// The wheel drained; park the frontier just past the last point the
	// flush is known complete for. Never jump it to the horizon: the
	// events about to fire (heap top) would then rearm into the past of
	// the frontier and bypass the wheel for the rest of the run.
	if len(e.queue) > 0 {
		if ht := tickOf(e.queue[0].at); ht+1 > w.cur {
			w.cur = ht + 1
		}
	} else if horizonTick+1 > w.cur {
		w.cur = horizonTick + 1
	}
}

// compactWheel is the wheel half of maybeCompact: it sweeps canceled
// events out of every occupied slot, releasing their storage. The caller
// resets the engine's dead count.
func (e *Engine) compactWheel() {
	w := &e.wh
	for lvl := 0; lvl < wheelLevels; lvl++ {
		for word := range w.occ[lvl] {
			b := w.occ[lvl][word]
			for b != 0 {
				s := uint64(word<<6) + uint64(bits.TrailingZeros64(b))
				b &= b - 1
				empty := true
				for way := 0; way < waysAt(lvl); way++ {
					head := w.head(lvl, s, way)
					var live *Event
					for ev := *head; ev != nil; {
						next := ev.next
						if ev.fn == nil {
							w.count--
							e.release(ev)
						} else {
							ev.next = live
							live = ev
						}
						ev = next
					}
					*head = live
					empty = empty && live == nil
				}
				if empty {
					w.occ[lvl][word] &^= 1 << (s & 63)
				}
			}
		}
	}
	// w.next stays valid: removing events can only raise the true
	// minimum, never lower it below the existing bound.
}
