package experiments

import (
	"slices"
	"testing"
	"time"

	"dcm/internal/sim"
)

// TestFixedLatencyTargetFIFO checks the smoke target's FIFO: with
// bursts of equal-time injections, overlapping requests and injections
// made from inside a done callback, every request completes exactly one
// latency after its injection, with (lat, true), in injection order.
func TestFixedLatencyTargetFIFO(t *testing.T) {
	const lat = time.Millisecond
	eng := sim.NewEngine()
	tg := newFixedLatencyTarget(eng, lat)
	var injected, completed []int
	injectedAt := map[int]time.Duration{}
	var inject func(id int)
	inject = func(id int) {
		injected = append(injected, id)
		injectedAt[id] = eng.Now()
		tg.InjectClass(-1, 0, func(rt time.Duration, ok bool) {
			if rt != lat || !ok {
				t.Errorf("request %d: done(%v, %v), want (%v, true)", id, rt, ok, lat)
			}
			if took := eng.Now() - injectedAt[id]; took != lat {
				t.Errorf("request %d completed %v after injection, want %v", id, took, lat)
			}
			completed = append(completed, id)
			if id%3 == 0 && id < 1000 {
				inject(id + 1000) // re-entrant: injected from inside done
			}
		})
	}
	// Three injections per quarter-latency step keep about a dozen
	// requests in flight, with equal-time ties in every step.
	const n = 300
	for i := 0; i < n; i++ {
		id := i
		eng.Schedule(time.Duration(i/3)*lat/4, func() { inject(id) })
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if want := n + n/3; len(completed) != want {
		t.Fatalf("%d requests completed, want %d", len(completed), want)
	}
	if !slices.Equal(completed, injected) {
		t.Fatalf("completion order differs from injection order:\n got %v\nwant %v", completed, injected)
	}
	if len(tg.pending) != tg.head {
		t.Fatalf("%d callbacks left pending", len(tg.pending)-tg.head)
	}
}
