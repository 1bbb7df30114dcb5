package sim

import (
	"strings"
	"testing"
	"time"
)

// TestVerifyHeapCleanEngine runs VerifyHeap against live engines in
// several states: fresh, loaded, mid-run, after cancels and after
// compaction. A correct engine must verify clean in all of them.
func TestVerifyHeapCleanEngine(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	if err := e.VerifyHeap(); err != nil {
		t.Fatalf("fresh engine: %v", err)
	}
	var timers []Timer
	for i := 0; i < 200; i++ {
		timers = append(timers, e.Schedule(time.Duration(200-i)*time.Millisecond, func() {}))
	}
	if err := e.VerifyHeap(); err != nil {
		t.Fatalf("loaded engine: %v", err)
	}
	for i := 0; i < 150; i++ {
		timers[i].Cancel() // crosses the compaction threshold
	}
	if err := e.VerifyHeap(); err != nil {
		t.Fatalf("after cancels/compaction: %v", err)
	}
	if err := e.Run(90 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := e.VerifyHeap(); err != nil {
		t.Fatalf("mid-run: %v", err)
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.VerifyHeap(); err != nil {
		t.Fatalf("drained: %v", err)
	}
}

// TestVerifyHeapDetectsCorruption corrupts engine internals one axis at a
// time and asserts VerifyHeap names each breakage. The engine is pinned
// heap-only so the corrupted entries actually sit in the heap queue;
// wheel-tier corruption is covered by TestVerifyWheelDetectsCorruption.
func TestVerifyHeapDetectsCorruption(t *testing.T) {
	t.Parallel()
	load := func() *Engine {
		e := NewEngine()
		e.SetHeapOnly(true)
		for i := 0; i < 20; i++ {
			e.Schedule(time.Duration(i)*time.Millisecond, func() {})
		}
		return e
	}
	cases := []struct {
		name    string
		corrupt func(e *Engine)
		want    string
	}{
		{"dead-count-out-of-range", func(e *Engine) { e.dead = len(e.queue) + 1 }, "dead count"},
		{"nil-event", func(e *Engine) { e.queue[3].ev = nil }, "nil event"},
		{"sort-key-mismatch", func(e *Engine) { e.queue[2].seq++ }, "disagrees with event"},
		{"event-in-the-past", func(e *Engine) {
			e.queue[0].at = -time.Second
			e.queue[0].ev.at = -time.Second
		}, "before clock"},
		{"heap-property", func(e *Engine) {
			// Swap root with a leaf, keeping entry/event keys consistent so
			// only the heap shape is broken.
			last := len(e.queue) - 1
			e.queue[0], e.queue[last] = e.queue[last], e.queue[0]
		}, "heap property"},
		// A canceled (nil-fn) event the dead count misses, and a dead
		// count that includes a live event.
		{"dead-miscount", func(e *Engine) { e.queue[1].ev.fn = nil }, "dead count is"},
		{"dead-overcount", func(e *Engine) { e.dead++ }, "dead count is"},
		{"queue-event-on-free-list", func(e *Engine) {
			e.queue[4].ev.next = e.free
			e.free = e.queue[4].ev
		}, "also on the free list"},
		{"free-list-cycle", func(e *Engine) {
			a, b := &Event{}, &Event{}
			a.next, b.next = b, a
			e.free = a
		}, "cycle"},
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

// TestViolationHookEventOrder fires the event-order self-check by forcing
// the clock past a queued event — the exact symptom of a broken heap pop.
func TestViolationHookEventOrder(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var got []string
	e.SetViolationHook(func(rule, detail string) { got = append(got, rule+": "+detail) })
	e.Schedule(10*time.Millisecond, func() {})
	e.now = 20 * time.Millisecond // corrupt: clock beyond the queued event
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !strings.HasPrefix(got[0], RuleEventOrder) {
		t.Fatalf("hook calls = %v, want one %s violation", got, RuleEventOrder)
	}
}

// TestViolationHookTimerGeneration fires the timer-generation self-check:
// a Timer handle stamped with a seq ahead of its event's can only exist
// if the free list recycled a live event.
func TestViolationHookTimerGeneration(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	var got []string
	e.SetViolationHook(func(rule, detail string) { got = append(got, rule) })
	tm := e.Schedule(time.Millisecond, func() {})
	tm.seq++ // corrupt: a handle from the future
	tm.Cancel()
	if len(got) != 1 || got[0] != RuleTimerGeneration {
		t.Fatalf("hook calls = %v, want one %s violation", got, RuleTimerGeneration)
	}
	// The legally stale direction (event recycled, old handle cancels)
	// must stay silent.
	got = nil
	tm2 := e.Schedule(time.Millisecond, func() {})
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	tm2.Cancel()
	if len(got) != 0 {
		t.Fatalf("stale cancel reported %v", got)
	}
}

// TestViolationHookSilentOnCleanRun pins the zero-false-positive
// property on a busy, cancel-heavy workload.
func TestViolationHookSilentOnCleanRun(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	e.SetViolationHook(func(rule, detail string) {
		t.Fatalf("clean run reported %s: %s", rule, detail)
	})
	var timers []Timer
	for i := 0; i < 500; i++ {
		i := i
		timers = append(timers, e.Schedule(time.Duration(i%37)*time.Millisecond, func() {
			if i%3 == 0 {
				e.Schedule(time.Duration(i%11)*time.Millisecond, func() {})
			}
		}))
		if i%2 == 0 {
			timers[i/2].Cancel()
		}
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.VerifyHeap(); err != nil {
		t.Fatal(err)
	}
}
