package sim

import (
	"testing"
	"unsafe"
)

// TestEventFootprint pins the per-event memory of the event core. The
// million-users workload keeps 10⁶ events pending, so its peak RSS is
// mostly the event arena: at 32 B per event that is 32 MB of a ~40 MB
// peak, and every 8 B added to Event adds 8 MB to it.
func TestEventFootprint(t *testing.T) {
	t.Parallel()
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	const why = "million-users holds 10⁶ pending events; its ~40 MB peak RSS grows 1 MB per byte per event"
	if got := unsafe.Sizeof(Event{}); got != 32 {
		t.Errorf("Event is %d B, want 32: %s", got, why)
	}
	if got := unsafe.Sizeof(Timer{}); got != 24 {
		t.Errorf("Timer is %d B, want 24: every gate waiter, watchdog and prep event holds one", got)
	}
	e := NewEngine()
	e.alloc()
	slab := e.slabs[0]
	if got, want := uintptr(cap(slab))*unsafe.Sizeof(slab[0]), uintptr(eventSlabSize*32); got != want {
		t.Errorf("one slab is %d B, want %d (%d events of 32 B): %s", got, want, eventSlabSize, why)
	}
}
