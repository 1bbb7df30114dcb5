// Arena-style event storage. Events are allocated in fixed-size slabs
// and recycled through an intrusive free list, so the engine reaches a
// steady state where schedule/fire performs zero heap allocations and
// the event population sits in a handful of contiguous blocks instead of
// being scattered across the GC heap. Every *Event the engine ever hands
// out lives in exactly one place at a time — a wheel slot list, the heap
// queue, or the free list — which VerifyHeap checks by balancing the
// three populations against the slab total.
package sim

// eventSlabSize is the number of events carved per slab. 256 events of
// 32 B (8 KiB) amortize warm-up allocation without stranding much memory
// on small simulations.
const eventSlabSize = 256

// alloc takes an event from the free list, carving a fresh slab the
// first time a new depth of concurrent events is reached.
func (e *Engine) alloc() *Event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		return ev
	}
	slab := make([]Event, eventSlabSize)
	e.slabs = append(e.slabs, slab)
	for i := eventSlabSize - 1; i >= 1; i-- {
		slab[i].next = e.free
		e.free = &slab[i]
	}
	return &slab[0]
}

// release retires an event's storage to the free list. Clearing fn makes
// a late Cancel through an outstanding Timer a no-op; the event's next
// schedule stamps a new seq, which invalidates the Timer outright.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.next = e.free
	e.free = ev
}
